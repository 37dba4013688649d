import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphsurf import (
    ActuatorGrid,
    CellOrientation,
    ControlInput,
    ObjectState,
    PhysicsParams,
    SurfaceConfig,
    acceleration,
    actuator_response,
    height_at,
    locate_cell,
    reconstruct_actuator_grid,
    steady_speed,
    surface_orientation_field,
)
from morphsurf import dynamics
from morphsurf.dynamics import advance, cell_indices, first_order_lag
from conftest import (
    advance_reference,
    gravity_field,
    random_config,
    random_feasible_input,
    slaved_energy,
    step,
)

CFG = SurfaceConfig(n=5, m=4, W=2.0, L=2.0, stroke=1.0, ref_col=3, ref_row=1)
P = PhysicsParams()

FLAT = [[CellOrientation(0.0, 0.0)] * CFG.m for _ in range(CFG.n)]


def huge_plane(pitch: float, roll: float = 0.0):
    """A single gigantic cell: effectively an infinite constant slope."""
    cfg = SurfaceConfig(1, 1, 1e5, 1e5, 1.0, 1, 1)
    return cfg, [[CellOrientation(pitch, roll)]]


class TestLocateCell:
    def test_interior(self):
        assert locate_cell(ObjectState(0.5 * CFG.W, 0.5 * CFG.L), CFG) == (1, 1)

    def test_boundary_goes_to_higher_index(self):
        assert locate_cell(ObjectState(CFG.W, 0.5 * CFG.L), CFG) == (2, 1)

    def test_ceiling_arithmetic(self):
        assert locate_cell(ObjectState(4.5 * CFG.W, 3.2 * CFG.L), CFG) == (5, 4)

    def test_outer_walls(self):
        assert locate_cell(ObjectState(0.0, 0.0), CFG) == (1, 1)
        assert locate_cell(ObjectState(CFG.width, CFG.length), CFG) == (5, 4)

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            locate_cell(ObjectState(-0.1, 1.0), CFG)


class TestHeightAt:
    def test_flat_grid(self):
        g = ActuatorGrid((0.3,) * 6, (0.0,) * 5)
        for xy in [(0.1, 0.1), (5.0, 3.0), (9.9, 7.9)]:
            assert height_at(ObjectState(*xy), g, CFG) == pytest.approx(0.3)

    def test_linear_in_y(self):
        # Corners (Z1, Z2, Z3, Z4) = (0, 0, 100, 100): pure slope along +y.
        cfg = SurfaceConfig(1, 1, 2.0, 2.0, 100.0, 1, 1)
        g = ActuatorGrid((0.0, 0.0), (0.0, 100.0))
        assert height_at(ObjectState(1.0, 1.0), g, cfg) == pytest.approx(50.0)

    def test_matches_plane_through_three_corners(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            cfg = random_config(rng)
            g = reconstruct_actuator_grid(random_feasible_input(rng, cfg), cfg)
            h = g.heights()
            s = ObjectState(rng.uniform(0, cfg.width), rng.uniform(0, cfg.length))
            i, j = locate_cell(s, cfg)
            # independent oracle: plane through P1, P2, P4 of the cell
            z1, z2, z4 = h[i - 1, j - 1], h[i, j - 1], h[i - 1, j]
            gx = (z2 - z1) / cfg.W
            gy = (z4 - z1) / cfg.L
            expect = z1 + gx * (s.x - (i - 1) * cfg.W) + gy * (s.y - (j - 1) * cfg.L)
            assert height_at(s, g, cfg) == pytest.approx(expect, abs=1e-12)


class TestAcceleration:
    def test_flat_at_rest(self):
        assert acceleration(CellOrientation(0, 0), 0, 0, P) == (0.0, 0.0)

    def test_pitch_only(self):
        ax, ay = acceleration(CellOrientation(math.pi / 6, 0.0), 0, 0, P)
        assert ax == pytest.approx(9.81 * math.cos(math.pi / 6) * 0.5)
        assert ay == 0.0

    def test_positive_row_drop_pushes_plus_y(self):
        ax, ay = acceleration(CellOrientation(0.0, -math.pi / 4), 0, 0, P)
        assert ax == 0.0
        assert ay == pytest.approx(4.905)

    def test_friction_opposes_motion(self):
        ax, ay = acceleration(CellOrientation(0, 0), 2.0, -3.0, P)
        assert ax == pytest.approx(-0.2)
        assert ay == pytest.approx(0.3)


class TestSteadySpeed:
    def test_flat_is_zero(self):
        assert steady_speed(CellOrientation(0.0, 0.0), P) == 0.0

    def test_closed_form(self):
        v = steady_speed(CellOrientation(math.pi / 4, 0.0), P)
        assert v == pytest.approx(49.05)

    def test_inverse_in_friction(self):
        o = CellOrientation(0.3, 0.1)
        doubled = PhysicsParams(friction=2 * P.friction)
        assert steady_speed(o, P) == pytest.approx(2 * steady_speed(o, doubled))

    def test_frictionless_raises(self):
        with pytest.raises(ValueError):
            steady_speed(CellOrientation(0.1, 0.0), PhysicsParams(friction=0.0))


class TestStep:
    def test_velocity_decay_flat(self):
        # coasting range is (v0/b)(1 - e^(-bt)) ~ 6.3 m, well inside the walls
        objs = [ObjectState(0.5, 4.0, vx=1.0)]
        for _ in range(10000):
            objs = step(objs, FLAT, P, CFG)
        assert objs[0].vx == pytest.approx(math.exp(-0.1 * 10.0), rel=1e-4)

    def test_rest_is_fixed_point(self):
        objs = [ObjectState(5.0, 4.0)]
        for _ in range(100):
            objs = step(objs, FLAT, P, CFG)
        assert objs[0] == ObjectState(5.0, 4.0)

    def test_elastic_reflection(self):
        objs = [ObjectState(0.05, 4.0, vx=-2.0, vy=0.5)]
        frictionless = PhysicsParams(friction=0.0)
        for _ in range(50):  # crosses x = 0 partway through
            objs = step(objs, FLAT, frictionless, CFG)
        assert objs[0].vx > 0
        assert objs[0].x > 0
        speed = math.hypot(objs[0].vx, objs[0].vy)
        assert speed == pytest.approx(math.hypot(2.0, 0.5), rel=1e-12)


class TestFarOvershoot:
    @pytest.mark.parametrize("v0", [1e12, -1e12])
    def test_speed_1e12_folds_back_inside(self, v0):
        # 1e12 m/s over dt = 2**-10 s is 976562500 m a substep: every value
        # below is an integer under 2**53, so the float arithmetic is exact
        # and the unfolded straight-line motion predicts the end state.
        cfg = SurfaceConfig(n=4, m=1, W=2.0, L=2.0, stroke=1.0, ref_col=1, ref_row=1)
        dt, substeps, x0 = 2.0**-10, 10, 1.0
        x, y = np.array([x0]), np.array([1.0])
        vx, vy = np.array([v0]), np.zeros(1)
        flat = np.zeros((cfg.n, cfg.m))
        advance(x, y, vx, vy, flat, flat, cfg, 0.0, dt, substeps)

        hi = int(cfg.width)
        bounces, r = divmod(int(x0) + substeps * int(v0 * dt), hi)
        assert 0.0 <= x[0] <= cfg.width
        assert x[0] == (r if bounces % 2 == 0 else hi - r)
        assert vx[0] == (v0 if bounces % 2 == 0 else -v0)
        assert (y[0], vy[0]) == (1.0, 0.0)


class TestActuatorResponse:
    def test_ideal(self):
        assert actuator_response(0.0, 42.0, PhysicsParams(tau=0.0)) == 42.0

    def test_one_time_constant(self):
        p = PhysicsParams(tau=0.5, dt=1e-3)
        z = 0.0
        for _ in range(500):  # accumulate exactly tau seconds
            z = actuator_response(z, 1.0, p)
        assert z == pytest.approx(1 - math.exp(-1), rel=1e-9)

    def test_fixed_point(self):
        p = PhysicsParams(tau=2.0)
        assert actuator_response(0.7, 0.7, p) == pytest.approx(0.7)

    def test_lag_is_exact_over_any_interval(self):
        # splitting an interval in two gives the same response
        whole = first_order_lag(0.2, 1.0, 0.7, 0.3)
        half = first_order_lag(first_order_lag(0.2, 1.0, 0.7, 0.15), 1.0, 0.7, 0.15)
        assert whole == pytest.approx(half, rel=1e-12)


class TestTerminalVelocity:
    def test_constant_pitch_plane(self):
        cfg, field = huge_plane(math.atan2(0.5, 2.0))  # the 14-degree slope
        gx, gy = gravity_field(field, P.gravity)
        x = np.array([cfg.W / 2])
        y = np.array([cfg.L / 2])
        vx = np.zeros(1)
        vy = np.zeros(1)
        advance(x, y, vx, vy, gx, gy, cfg, P.friction, P.dt, 100000)  # 10/b seconds
        expect = steady_speed(CellOrientation(math.atan2(0.5, 2.0), 0.0), P)
        assert vx[0] == pytest.approx(expect, rel=5e-3)


class TestLowPass:
    def test_step_response_matches_first_order_transfer(self):
        # a step change in slope drives vx like the 1/(s+b) step response
        pitch = 0.2
        cfg, field = huge_plane(pitch)
        gx, gy = gravity_field(field, P.gravity)
        x = np.array([cfg.W / 2])
        y = np.array([cfg.L / 2])
        vx = np.zeros(1)
        vy = np.zeros(1)
        accel = gx[0, 0]
        b = P.friction
        done = 0.0
        for t_target in (2.0, 5.0, 10.0):
            substeps = int(round((t_target - done) / P.dt))
            advance(x, y, vx, vy, gx, gy, cfg, b, P.dt, substeps)
            done = t_target
            expect = accel / b * (1 - math.exp(-b * t_target))
            assert vx[0] == pytest.approx(expect, rel=1e-2)


class TestConvergenceOrder:
    def test_halving_dt_halves_position_error(self):
        pitch, roll = 0.25, -0.15
        cfg, field = huge_plane(pitch, roll)
        gx, gy = gravity_field(field, P.gravity)

        def final_x(dt):
            x = np.array([cfg.W / 2])
            y = np.array([cfg.L / 2])
            vx = np.array([0.3])
            vy = np.array([-0.2])
            advance(x, y, vx, vy, gx, gy, cfg, P.friction, dt, int(round(2.0 / dt)))
            return x[0], y[0]

        x1, y1 = final_x(1e-3)
        x2, y2 = final_x(5e-4)
        x3, y3 = final_x(2.5e-4)
        e1 = math.hypot(x1 - x2, y1 - y2)
        e2 = math.hypot(x2 - x3, y2 - y3)
        assert 1.5 < e1 / e2 < 3.0


class TestMirrorSymmetry:
    def test_mirrored_scenario_mirrors_trajectory(self):
        cfg = SurfaceConfig(4, 3, 2.0, 2.0, 1.0, 2, 2)
        rng = np.random.default_rng(31)
        u = random_feasible_input(rng, cfg)

        mirrored_cfg = SurfaceConfig(4, 3, 2.0, 2.0, 1.0, 4 + 1 - 2, 2)
        u_m = ControlInput(
            tuple(-d for d in reversed(u.dz_col)), u.dz_row, u.frac_x, u.frac_y
        )

        gx, gy = gravity_field(surface_orientation_field(u, cfg), P.gravity)
        gxm, gym = gravity_field(
            surface_orientation_field(u_m, mirrored_cfg), P.gravity
        )

        x = np.array([1.3])
        y = np.array([2.7])
        vx = np.array([0.4])
        vy = np.array([-0.6])
        xm = np.array([cfg.width - 1.3])
        ym = np.array([2.7])
        vxm = np.array([-0.4])
        vym = np.array([-0.6])
        advance(x, y, vx, vy, gx, gy, cfg, P.friction, P.dt, 5000)
        advance(xm, ym, vxm, vym, gxm, gym, mirrored_cfg, P.friction, P.dt, 5000)
        assert xm[0] == pytest.approx(cfg.width - x[0], abs=1e-6)
        assert ym[0] == pytest.approx(y[0], abs=1e-6)
        assert vxm[0] == pytest.approx(-vx[0], abs=1e-6)


class TestEnergyDissipation:
    def test_non_increasing_on_static_surface(self):
        # Seam crossings and wall reflections are excluded: the per-cell
        # planar model reassigns the slaved vertical rate there, which is a
        # modeling artifact, not integrator energy injection.
        rng = np.random.default_rng(41)
        tol = 100 * P.dt**2
        for _ in range(20):
            cfg = random_config(rng, 5, 5)
            u = random_feasible_input(rng, cfg)
            g = reconstruct_actuator_grid(u, cfg)
            col = np.asarray(g.col_heights)
            row = np.asarray(g.row_heights)
            gx, gy = gravity_field(surface_orientation_field(u, cfg), P.gravity)
            k = 4
            x = rng.uniform(0, cfg.width, k)
            y = rng.uniform(0, cfg.length, k)
            vx = rng.uniform(-3, 3, k)
            vy = rng.uniform(-3, 3, k)
            e_prev, cell_prev = slaved_energy(x, y, vx, vy, col, row, cfg, P.gravity)
            for _ in range(1500):
                xp, yp = x.copy(), y.copy()
                advance(x, y, vx, vy, gx, gy, cfg, P.friction, P.dt, 1)
                e_now, cell_now = slaved_energy(x, y, vx, vy, col, row, cfg, P.gravity)
                clean = (
                    (cell_prev[0] == cell_now[0])
                    & (cell_prev[1] == cell_now[1])
                    & (np.abs(x - (xp + vx * P.dt)) < 1e-12)
                    & (np.abs(y - (yp + vy * P.dt)) < 1e-12)
                )
                assert np.all((e_now - e_prev)[clean] <= tol)
                e_prev, cell_prev = e_now, cell_now

    def test_reflection_preserves_planar_speed_exactly(self):
        cfg = SurfaceConfig(2, 2, 2.0, 2.0, 1.0, 1, 1)
        x = np.array([0.001])
        y = np.array([1.0])
        vx = np.array([-3.0])
        vy = np.array([1.0])
        gx = np.zeros((2, 2))
        gy = np.zeros((2, 2))
        advance(x, y, vx, vy, gx, gy, cfg, 0.0, 1e-3, 1)
        assert vx[0] == 3.0 and vy[0] == 1.0  # frictionless: exact flip


def run_both(state, gx, gy, cfg, friction, dt, substeps):
    """(advance, advance_reference) end states from copies of one state."""
    out = []
    for fn in (advance, advance_reference):
        s = [np.array(a, dtype=float) for a in state]
        fn(*s, gx, gy, cfg, friction, dt, substeps)
        out.append(s)
    return out


def assert_bitwise(state, gx, gy, cfg, friction, dt, substeps):
    got, want = run_both(state, gx, gy, cfg, friction, dt, substeps)
    for name, g, w in zip(("x", "y", "vx", "vy"), got, want):
        assert np.array_equal(g, w), name
        assert np.array_equal(np.signbit(g), np.signbit(w)), name


def ramp_field(cfg):
    """A field whose every cell differs, so the wrong cell shows."""
    k = np.arange(cfg.n * cfg.m, dtype=float).reshape(cfg.n, cfg.m)
    return 0.3 + 0.05 * k, -0.2 + 0.03 * k


class TestHeldCellRecurrence:
    """advance against the per-substep loop, bit for bit (signs of zero too)."""

    CFG = SurfaceConfig(n=4, m=3, W=0.7, L=1.3, stroke=1.0, ref_col=2, ref_row=2)

    @pytest.mark.parametrize("substeps", [1, 10])
    def test_on_cell_boundaries_and_far_walls(self, substeps):
        cfg = self.CFG
        gx, gy = ramp_field(cfg)
        xs = [i * cfg.W for i in range(cfg.n)] + [cfg.width]
        ys = [j * cfg.L for j in range(cfg.m)] + [cfg.length]
        xs += [np.nextafter(v, d) for v in xs for d in (-1.0, 1.0)]
        ys += [np.nextafter(v, d) for v in ys for d in (-1.0, 1.0)]
        x, y = (a.ravel() for a in np.meshgrid(xs, ys))
        inside = (x >= 0) & (x <= cfg.width) & (y >= 0) & (y <= cfg.length)
        x, y = x[inside], y[inside]
        rng = np.random.default_rng(5)
        for vx, vy in [(0.0, 0.0), tuple(rng.uniform(-0.3, 0.3, (2, x.size)))]:
            state = (x, y, np.broadcast_to(vx, x.shape), np.broadcast_to(vy, x.shape))
            assert_bitwise(state, gx, gy, cfg, 0.1, 0.01, substeps)
            assert_bitwise(state, 0 * gx, 0 * gy, cfg, 0.0, 0.01, substeps)

    @pytest.mark.parametrize("substeps", [1, 10])
    def test_signed_zeros(self, substeps):
        cfg = self.CFG
        z = [0.0, -0.0]
        x, y, vx, vy = (a.ravel() for a in np.meshgrid(z, z, z, z))
        zero = np.zeros((cfg.n, cfg.m))
        for gx, gy in [(zero, -zero), (-zero, zero), ramp_field(cfg)]:
            assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.0, 0.01, substeps)
            assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.1, 0.01, substeps)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_cell_crossing_and_wall_hit_in_substep_k(self, k):
        # Each object reaches its event halfway through substep k of 10.
        cfg = self.CFG
        gx, gy = ramp_field(cfg)
        dt, v = 0.01, 0.5
        run = (k - 0.5) * v * dt
        x = np.array([cfg.W - run, 2 * cfg.W + run, cfg.width - run, run, 0.35, 0.35])
        y = np.array([0.6, 0.6, 0.6, 0.6, cfg.L - run, cfg.length - run])
        vx = np.array([v, -v, v, -v, 0.0, 0.0])
        vy = np.array([0.0, 0.0, 0.0, 0.0, v, v])
        assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.0, dt, 10)
        assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.1, dt, 10)

    @pytest.mark.parametrize("speed", [1e12, -1e12])
    def test_far_overshoot(self, speed):
        cfg = self.CFG
        gx, gy = ramp_field(cfg)
        x = np.array([0.1, 1.5, 2.7, 0.4])
        y = np.array([1.0, 0.2, 3.8, 2.2])
        vx = np.array([speed, 0.0, speed, 0.1])
        vy = np.array([0.0, speed, -speed, 0.0])
        for substeps in (1, 10):
            assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.1, 0.01, substeps)

    def test_only_failing_objects_take_the_loop(self, monkeypatch):
        taken = []
        exact = dynamics._advance_exact

        def spy(p, v, *args):
            taken.append(p.shape[1])
            exact(p, v, *args)

        monkeypatch.setattr(dynamics, "_advance_exact", spy)
        cfg = SurfaceConfig(n=12, m=12, W=2.0, L=2.0, stroke=1.0, ref_col=6, ref_row=6)
        gx, gy = ramp_field(cfg)
        rng = np.random.default_rng(9)
        x, y = rng.uniform(0.0, cfg.width, (2, 300))
        vx, vy = rng.uniform(-2.0, 2.0, (2, 300))
        assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.1, 0.01, 10)
        assert len(taken) == 1 and 0 < taken[0] < 100

    def test_many_objects_run_in_blocks(self):
        cfg = self.CFG
        gx, gy = ramp_field(cfg)
        rng = np.random.default_rng(12)
        count = dynamics._HELD_BLOCK // 4  # blocks of 4, 4 and 2 substeps
        x = rng.uniform(0.0, cfg.width, count)
        y = rng.uniform(0.0, cfg.length, count)
        vx, vy = rng.uniform(-1.0, 1.0, (2, count))
        assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.1, 0.01, 10)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_grids_and_states(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        m = data.draw(st.integers(1, 6), label="m")
        size = st.floats(0.05, 3.0)
        cfg = SurfaceConfig(n, m, data.draw(size), data.draw(size), 1.0, 1, 1)
        accel = st.floats(-5.0, 5.0)
        gx = np.array(data.draw(st.lists(accel, min_size=n * m, max_size=n * m)))
        gy = np.array(data.draw(st.lists(accel, min_size=n * m, max_size=n * m)))
        count = data.draw(st.integers(1, 8), label="objects")

        def coordinate(cell, cells):
            edges = [k * cell for k in range(cells)] + [cells * cell]
            return st.one_of(st.floats(0.0, cells * cell), st.sampled_from(edges + [-0.0]))

        speed = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 1e12, -1e12]))
        x = data.draw(st.lists(coordinate(cfg.W, n), min_size=count, max_size=count))
        y = data.draw(st.lists(coordinate(cfg.L, m), min_size=count, max_size=count))
        vx = data.draw(st.lists(speed, min_size=count, max_size=count))
        vy = data.draw(st.lists(speed, min_size=count, max_size=count))
        friction = data.draw(st.sampled_from([0.0, 0.1, 2.0]), label="friction")
        dt = data.draw(st.sampled_from([1e-3, 0.01, 0.1]), label="dt")
        substeps = data.draw(st.integers(1, 12), label="substeps")
        assert_bitwise(
            (x, y, vx, vy), gx.reshape(n, m), gy.reshape(n, m), cfg, friction, dt, substeps
        )


def gathered_cells(x, y, cfg):
    """The 0-based cells advance takes each object's acceleration from: one
    frictionless substep from rest, on a field that numbers the columns and
    the rows, leaves the numbers times dt in the velocities."""
    gx, gy = np.meshgrid(np.arange(1.0, cfg.n + 1), np.arange(1.0, cfg.m + 1), indexing="ij")
    vx, vy = np.zeros(len(x)), np.zeros(len(x))
    dt = 2.0**-30
    advance(np.array(x), np.array(y), vx, vy, gx, gy, cfg, 0.0, dt, 1)
    return np.abs(vx) / dt - 1, np.abs(vy) / dt - 1


class TestOneCellRule:
    """advance finds an object's cell by cell_indices's rule, floor(x / W)."""

    def test_where_truncating_x_times_inverse_w_differs(self):
        cfg = SurfaceConfig(n=8, m=1, W=2.853867904161509, L=2.0, stroke=1.0,
                            ref_col=1, ref_row=1)
        x, y = np.array([14.269339520807543]), np.array([1.0])
        ci, _ = cell_indices(x, y, cfg)
        assert ci[0] == 4
        assert gathered_cells(x, y, cfg)[0][0] == ci[0]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.integers(1, 10), st.integers(1, 10))
    def test_on_cell_boundaries_and_their_neighbours(self, w, length, n, m):
        cfg = SurfaceConfig(n=n, m=m, W=w, L=length, stroke=1.0, ref_col=1, ref_row=1)

        def near_boundaries(size, cells, extent):
            edges = np.arange(cells + 1) * size
            near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
            return near[(near >= 0.0) & (near <= extent)]

        x, y = np.meshgrid(near_boundaries(w, n, cfg.width),
                           near_boundaries(length, m, cfg.length))
        x, y = x.ravel(), y.ravel()
        ci, cj = cell_indices(x, y, cfg)
        gi, gj = gathered_cells(x, y, cfg)
        assert np.array_equal(gi, ci) and np.array_equal(gj, cj)
