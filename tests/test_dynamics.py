import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphsurf import (
    CellOrientation,
    ControlInput,
    ObjectState,
    PhysicsParams,
    SurfaceConfig,
    reconstruct_actuator_grid,
)
from morphsurf import dynamics
from morphsurf.control import occupancy_sets
from morphsurf.dynamics import advance, cell_indices, first_order_lag
from morphsurf.engine import _grid_orientation_terms
from conftest import (
    advance_reference,
    gravity_field,
    orientation_field,
    random_config,
    random_feasible_input,
    slaved_energy,
    steady_speed,
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
    """cell_indices, the array form of the cell rule, locates each position's
    0-based cell."""

    @staticmethod
    def cells(xs, ys):
        ci, cj = cell_indices(np.array(xs), np.array(ys), CFG)
        return list(zip(ci.tolist(), cj.tolist()))

    def test_interior(self):
        assert self.cells([0.5 * CFG.W], [0.5 * CFG.L]) == [(0, 0)]

    def test_boundary_goes_to_higher_index(self):
        assert self.cells([CFG.W, 0.5 * CFG.W], [0.5 * CFG.L, 2 * CFG.L]) == [(1, 0), (0, 2)]

    def test_ceiling_arithmetic(self):
        assert self.cells([4.5 * CFG.W], [3.2 * CFG.L]) == [(4, 3)]

    def test_outer_walls(self):
        # the near walls to the first cell, the far walls to the last
        assert self.cells([0.0, CFG.width], [0.0, CFG.length]) == [(0, 0), (4, 3)]

    @pytest.mark.parametrize("shape", [(7,), (3, 7)])
    def test_one_array_of_both_axes(self, shape):
        # for 1-D positions and for (rows, N) positions, such as a trace's
        rng = np.random.default_rng(3)
        x, y = rng.uniform(0.0, CFG.width, shape), rng.uniform(0.0, CFG.length, shape)
        cells = cell_indices(x, y, CFG)
        assert cells.shape == (2, *shape) and cells.dtype == np.intp
        assert np.array_equal(cells[0], dynamics.cell_index(x, CFG.W, CFG.n - 1))
        assert np.array_equal(cells[1], dynamics.cell_index(y, CFG.L, CFG.m - 1))

    def test_outside_raises(self):
        # cell_indices takes the workspace as given; occupancy_sets, which
        # locates the objects' cells for a command given none, refuses a
        # point outside it
        with pytest.raises(ValueError, match=r"position \(-0\.1, 1\.0\) outside workspace"):
            occupancy_sets(np.array([-0.1]), np.array([1.0]), CFG)


class TestAcceleration:
    """Signs and sizes of the gravity field the engine builds, and of the
    friction that advance applies."""

    @staticmethod
    def field(dz1, dz2):
        """(gx, gy) of cell (2, 3) of CFG with drops dz1 along +x and dz2
        along +y, the rest of the surface level."""
        grid_col, grid_row = np.zeros(CFG.n + 1), np.zeros(CFG.m + 1)
        grid_col[:2] = dz1
        grid_row[:3] = dz2
        gx, gy = _grid_orientation_terms(grid_col, grid_row, CFG, P.gravity)
        return gx[2 - 1, 3 - 1], gy[2 - 1, 3 - 1]

    def test_flat_at_rest(self):
        assert self.field(0.0, 0.0) == (0.0, 0.0)

    def test_pitch_only(self):
        # a positive column drop pitches the cell by +30 degrees: +x
        ax, ay = self.field(CFG.W * math.tan(math.pi / 6), 0.0)
        assert ax == pytest.approx(9.81 * math.cos(math.pi / 6) * 0.5)
        assert ay == 0.0

    def test_positive_row_drop_pushes_plus_y(self):
        # a drop of L along +y rolls the cell by -45 degrees
        ax, ay = self.field(0.0, CFG.L)
        assert ax == 0.0
        assert ay == pytest.approx(4.905)

    def test_friction_opposes_motion(self):
        flat = np.zeros((CFG.n, CFG.m))
        x, y = np.array([5.0]), np.array([4.0])
        vx, vy = np.array([2.0]), np.array([-3.0])
        advance(x, y, vx, vy, flat, flat, CFG, P.friction, P.dt, 1, cell_indices(x, y, CFG))
        assert (vx[0] - 2.0) / P.dt == pytest.approx(-0.2)
        assert (vy[0] + 3.0) / P.dt == pytest.approx(0.3)


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
        advance(x, y, vx, vy, flat, flat, cfg, 0.0, dt, substeps, cell_indices(x, y, cfg))

        hi = int(cfg.width)
        bounces, r = divmod(int(x0) + substeps * int(v0 * dt), hi)
        assert 0.0 <= x[0] <= cfg.width
        assert x[0] == (r if bounces % 2 == 0 else hi - r)
        assert vx[0] == (v0 if bounces % 2 == 0 else -v0)
        assert (y[0], vy[0]) == (1.0, 0.0)


class TestActuatorResponse:
    def test_ideal(self):
        p = PhysicsParams(tau=0.0)
        assert first_order_lag(0.0, 42.0, p.tau, p.dt) == 42.0

    def test_one_time_constant(self):
        p = PhysicsParams(tau=0.5, dt=1e-3)
        z = 0.0
        for _ in range(500):  # accumulate exactly tau seconds
            z = first_order_lag(z, 1.0, p.tau, p.dt)
        assert z == pytest.approx(1 - math.exp(-1), rel=1e-9)

    def test_fixed_point(self):
        p = PhysicsParams(tau=2.0)
        assert first_order_lag(0.7, 0.7, p.tau, p.dt) == pytest.approx(0.7)

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
        # 10/b seconds
        advance(x, y, vx, vy, gx, gy, cfg, P.friction, P.dt, 100000, cell_indices(x, y, cfg))
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
            advance(x, y, vx, vy, gx, gy, cfg, b, P.dt, substeps, cell_indices(x, y, cfg))
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
            advance(x, y, vx, vy, gx, gy, cfg, P.friction, dt, int(round(2.0 / dt)),
                    cell_indices(x, y, cfg))
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
        u_m = ControlInput(tuple(-d for d in reversed(u.dz_col)), u.dz_row)

        gx, gy = gravity_field(orientation_field(u, cfg), P.gravity)
        gxm, gym = gravity_field(
            orientation_field(u_m, mirrored_cfg), P.gravity
        )

        x = np.array([1.3])
        y = np.array([2.7])
        vx = np.array([0.4])
        vy = np.array([-0.6])
        xm = np.array([cfg.width - 1.3])
        ym = np.array([2.7])
        vxm = np.array([-0.4])
        vym = np.array([-0.6])
        advance(x, y, vx, vy, gx, gy, cfg, P.friction, P.dt, 5000, cell_indices(x, y, cfg))
        advance(xm, ym, vxm, vym, gxm, gym, mirrored_cfg, P.friction, P.dt, 5000,
                cell_indices(xm, ym, mirrored_cfg))
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
            gx, gy = gravity_field(orientation_field(u, cfg), P.gravity)
            k = 4
            x = rng.uniform(0, cfg.width, k)
            y = rng.uniform(0, cfg.length, k)
            vx = rng.uniform(-3, 3, k)
            vy = rng.uniform(-3, 3, k)
            e_prev, cell_prev = slaved_energy(x, y, vx, vy, col, row, cfg, P.gravity)
            for _ in range(1500):
                xp, yp = x.copy(), y.copy()
                advance(x, y, vx, vy, gx, gy, cfg, P.friction, P.dt, 1, cell_indices(x, y, cfg))
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
        advance(x, y, vx, vy, gx, gy, cfg, 0.0, 1e-3, 1, cell_indices(x, y, cfg))
        assert vx[0] == 3.0 and vy[0] == 1.0  # frictionless: exact flip


def run_both(state, gx, gy, cfg, friction, dt, substeps):
    """(advance, advance_reference) end states from copies of one state."""
    got, want = ([np.array(a, dtype=float) for a in state] for _ in range(2))
    advance(*got, gx, gy, cfg, friction, dt, substeps, cell_indices(got[0], got[1], cfg))
    advance_reference(*want, gx, gy, cfg, friction, dt, substeps)
    return got, want


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

    def test_quiet_call_runs_one_recurrence(self, events):
        cfg = self.CFG
        gx, gy = ramp_field(cfg)
        x, y = np.array([0.35, 1.05, 2.45]), np.array([0.65, 1.95, 3.25])  # cell centres
        zero = np.zeros(3)
        assert_bitwise((x, y, zero, zero), gx, gy, cfg, 0.1, 0.01, 10)
        assert events == {"recurrences": 1, "tails": []}

    @pytest.mark.parametrize("runs, counts", [
        # One object crosses into the next column in substep 3, the other
        # in substep 7: one recurrence, then 7 and 3 substeps in scalar code,
        # and no other object is computed again.
        ([(1, 0.6, 2.5), (2, 0.6, 6.5)], {"recurrences": 1, "tails": [7, 3]}),
        # Five objects cross in substep 2 and owe 8 substeps each: however
        # many they owe in all, each is finished alone.
        ([(col, row, 1.5) for col, row in [(1, 0.6), (2, 0.6), (3, 0.6), (1, 1.9), (2, 1.9)]],
         {"recurrences": 1, "tails": [8] * 5}),
    ])
    def test_finishes_each_crossing_alone(self, events, runs, counts):
        # Each object starts ``steps`` substeps' run short of the boundary
        # x = col * W, so it crosses it halfway through a substep; an object
        # at rest rides along in its cell centre.
        cfg = self.CFG
        zero = np.zeros((cfg.n, cfg.m))
        dt, v = 0.01, 0.5
        x = np.array([col * cfg.W - steps * v * dt for col, _, steps in runs] + [0.35])
        y = np.array([row for _, row, _ in runs] + [0.6])
        vx, vy = [v] * len(runs) + [0.0], [0.0] * x.size
        assert_bitwise((x, y, vx, vy), zero, zero, cfg, 0.0, dt, 10)
        assert events == counts

    def test_held_against_the_walls(self, events):
        # The corner cell slopes into both walls, so the object at rest in
        # its corner bounces off them on every other substep.  It leaves the
        # workspace in substep 1 and is finished alone from there.
        cfg = self.CFG
        gx, gy = np.zeros((cfg.n, cfg.m)), np.zeros((cfg.n, cfg.m))
        gx[0, -1], gy[0, -1] = -5.0, 5.0
        assert_bitwise(([0.0], [cfg.length], [0.0], [0.0]), gx, gy, cfg, 0.1, 0.01, 20)
        assert events == {"recurrences": 1, "tails": [19]}

    @pytest.mark.parametrize("friction", [0.0, 0.1])
    @pytest.mark.parametrize("substeps, counts", [
        # it leaves its starting cell in substep 1 and is finished alone
        # through the rest, however many they are
        (20, {"recurrences": 1, "tails": [19]}),
        (60, {"recurrences": 1, "tails": [59]}),
    ])
    def test_back_and_forth_across_a_boundary(self, events, friction, substeps, counts):
        cfg = self.CFG
        gx, gy = np.zeros((cfg.n, cfg.m)), np.zeros((cfg.n, cfg.m))
        gx[0], gx[1] = 1.0, -1.0  # both columns slope toward x = W
        assert_bitwise(([cfg.W], [0.6], [0.0], [0.0]), gx, gy, cfg, friction, 0.01, substeps)
        assert events == counts

    def test_no_substeps_change_nothing(self):
        cfg = self.CFG
        gx, gy = ramp_field(cfg)
        state = [np.array([0.0, -0.0, cfg.width]), np.array([-0.0, 1.0, 0.0]),
                 np.array([-0.0, 1e12, 0.0]), np.array([0.0, -0.0, -3.0])]
        before = [a.copy() for a in state]
        advance(*state, gx, gy, cfg, 0.1, 0.01, 0, cell_indices(state[0], state[1], cfg))
        for got, want in zip(state, before):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert_bitwise(before, gx, gy, cfg, 0.1, 0.01, 0)

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
        assert_bitwise(*random_case(data))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_grids_and_states_in_short_recurrences(self, data):
        # At most 8 object-substeps per recurrence, so events land on the
        # ends of recurrences and calls run several recurrences.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_HELD_BLOCK", 8)
            assert_bitwise(*random_case(data))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.booleans())
    def test_crowds_of_fast_objects(self, data, short):
        # Rows of at least 128 values, summed row by row, and many objects
        # finished alone in one recurrence; with short recurrences every
        # recurrence is one row.
        with pytest.MonkeyPatch.context() as patch:
            if short:
                patch.setattr(dynamics, "_HELD_BLOCK", 8)
            assert_bitwise(*crowd_case(data))


class TestLinearCost:
    """advance computes each object-substep at most once in a recurrence and
    at most once in scalar code: a call takes at most objects x substeps
    scalar substeps, so its cost stays linear in its substeps whatever its
    events."""

    CELL = SurfaceConfig(n=1, m=1, W=2.0, L=2.0, stroke=1.0, ref_col=1, ref_row=1)

    def test_an_event_on_every_substep(self, monkeypatch):
        # At 3e5 m/s the object crosses the 2 m cell 150 times a substep.
        # Rows are counted per recurrence as its check looks them up, the
        # scalar substeps per recurrence as _finish is handed them.  The one
        # recurrence leaves the cell in its row 1, and _finish takes the
        # object through the other 3999 substeps.
        rows, scalar, lookup, finish = [], [], dynamics.cell_index, dynamics._finish

        def counted(pos, *args):
            if pos.ndim == 3:  # a recurrence's check: (rows, 2, N)
                rows.append(len(pos))
                scalar.append(0)
            return lookup(pos, *args)

        def finished(*args):
            scalar[-1] += args[4]
            return finish(*args)

        monkeypatch.setattr(dynamics, "cell_index", counted)
        monkeypatch.setattr(dynamics, "_finish", finished)
        zero = np.zeros((1, 1))
        state = [np.array([v]) for v in (1.0, 1.0, 3e5, 0.0)]
        start = time.perf_counter()
        advance(*state, zero, zero, self.CELL, 0.1, 1e-3, 4000,
                cell_indices(state[0], state[1], self.CELL))
        assert time.perf_counter() - start < 2.0
        assert rows == [4000]
        assert scalar == [3999]

    @pytest.mark.parametrize("speed", [3e5, 30.0, 0.9])
    def test_long_ticks_match_the_loop(self, speed):
        # events on every substep, every few substeps and now and then, so
        # objects are finished alone from early, middle and late rows
        cfg = TestHeldCellRecurrence.CFG
        gx, gy = ramp_field(cfg)
        x, y = np.array([0.1, 1.5, 2.7, 0.4]), np.array([1.0, 0.2, 3.8, 2.2])
        vx = np.array([speed, 0.0, -speed, 0.1])
        vy = np.array([0.0, speed / 3, 0.2, -0.1])
        assert_bitwise((x, y, vx, vy), gx, gy, cfg, 0.1, 1e-3, 600)
        assert_bitwise((x[3:], y[3:], vx[3:], vy[3:]), gx, gy, cfg, 0.0, 1e-3, 600)


class TestCellsLeft:
    """advance returns the (2, N) cells of the positions it leaves, which
    the engine hands to the next tick's advance as its starting cells."""

    @staticmethod
    def check(state, gx, gy, cfg, friction, dt, substeps):
        left = [np.array(a, dtype=float) for a in state]
        cells = advance(*left, gx, gy, cfg, friction, dt, substeps,
                        cell_indices(left[0], left[1], cfg))
        assert cells.shape == (2, len(left[0])) and cells.dtype == np.intp
        assert np.array_equal(cells, cell_indices(left[0], left[1], cfg))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_grids_and_states(self, data):
        state, gx, gy, cfg, friction, dt, substeps = random_case(data)
        if data.draw(st.booleans(), label="no substeps"):
            substeps = 0
        with pytest.MonkeyPatch.context() as patch:
            if data.draw(st.booleans(), label="short recurrences"):
                patch.setattr(dynamics, "_HELD_BLOCK", 8)
            self.check(state, gx, gy, cfg, friction, dt, substeps)

    @pytest.mark.parametrize("k", [9, 10])
    def test_a_wall_hit_in_the_last_substep(self, monkeypatch, k):
        # The object reaches the far wall halfway through substep k of 10.
        # One recurrence leaves it outside from row k on, and _finish folds
        # it back and takes it through the 10 - k substeps left, so its
        # cells come from _finish, not from a lookup.
        seen = Counter()  # cell_index calls by the dimensions of the positions
        tails = []
        lookup, finish = dynamics.cell_index, dynamics._finish

        def spy(pos, *args):
            seen[pos.ndim] += 1
            return lookup(pos, *args)

        def spy_finish(*args):
            tails.append(args[4])
            return finish(*args)

        monkeypatch.setattr(dynamics, "cell_index", spy)
        monkeypatch.setattr(dynamics, "_finish", spy_finish)
        cfg = TestHeldCellRecurrence.CFG
        zero = np.zeros((cfg.n, cfg.m))
        dt, v = 0.01, 0.5
        state = ([cfg.width - (k - 0.5) * v * dt], [0.6], [v], [0.0])
        self.check(state, zero, zero, cfg, 0.0, dt, 10)
        # one recurrence, whose check is advance's only lookup
        assert (seen[2], seen[3]) == (0, 1)  # one row, a check's rows
        assert tails == [10 - k]


@pytest.fixture
def events(monkeypatch):
    """Counts what advance does: its recurrences (each checks its rows with
    one cell_index call) and, per _finish call, the substeps that call takes
    one object in scalar code.  advance is handed its starting cells, so a
    lookup of one row's cells, (2, N), fails the test."""
    seen = {"recurrences": 0, "tails": []}
    lookup, finish = dynamics.cell_index, dynamics._finish

    def spy_lookup(pos, *args):
        assert pos.ndim != 2, "advance looked up one row's cells"
        seen["recurrences"] += pos.ndim == 3  # the check passes (rows, 2, N)
        return lookup(pos, *args)

    def spy_finish(*args):
        seen["tails"].append(args[4])  # its steps
        return finish(*args)

    monkeypatch.setattr(dynamics, "cell_index", spy_lookup)
    monkeypatch.setattr(dynamics, "_finish", spy_finish)
    return seen


def random_case(data):
    """assert_bitwise's arguments for a random grid, field and state."""
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
    return (x, y, vx, vy), gx.reshape(n, m), gy.reshape(n, m), cfg, friction, dt, substeps


def crowd_case(data):
    """random_case with 64-300 objects in all, the added ones drawn by numpy
    from a drawn seed, a fifth of their coordinates on cell edges, at speeds
    up to a drawn bound of 0.5 m/s to 1e12 m/s."""
    (x, y, vx, vy), gx, gy, cfg, friction, dt, substeps = random_case(data)
    more = data.draw(st.integers(64, 300), label="objects") - len(x)
    bound = data.draw(st.sampled_from([0.5, 30.0, 1e3, 1e12]), label="speed")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def coordinate(cell, cells):
        edges = rng.integers(0, cells + 1, more) * cell
        return np.where(rng.random(more) < 0.2, edges, rng.uniform(0.0, cells * cell, more))

    x, y = np.append(x, coordinate(cfg.W, cfg.n)), np.append(y, coordinate(cfg.L, cfg.m))
    vx, vy = (np.append(v, rng.uniform(-bound, bound, more)) for v in (vx, vy))
    return (x, y, vx, vy), gx, gy, cfg, friction, dt, substeps


def gathered_cells(x, y, cfg):
    """The 0-based cells advance takes each object's acceleration from: one
    frictionless substep from rest, on a field that numbers the columns and
    the rows, leaves the numbers times dt in the velocities."""
    gx, gy = np.meshgrid(np.arange(1.0, cfg.n + 1), np.arange(1.0, cfg.m + 1), indexing="ij")
    vx, vy = np.zeros(len(x)), np.zeros(len(x))
    dt = 2.0**-30
    advance(np.array(x), np.array(y), vx, vy, gx, gy, cfg, 0.0, dt, 1, cell_indices(x, y, cfg))
    return np.abs(vx) / dt - 1, np.abs(vy) / dt - 1


class TestOneCellRule:
    """advance, handed the cells cell_indices gives, takes each object's
    acceleration from the cell of its rule, floor(x / W)."""

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
