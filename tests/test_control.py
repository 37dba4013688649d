import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphsurf import (
    ControllerParams,
    ObjectState,
    PhysicsParams,
    Scenario,
    SingleCellGains,
    SurfaceConfig,
    planar_completion,
    single_cell_feedback,
    validate_grid,
)
from morphsurf import control
from morphsurf.control import SINGLE_CELL_KD, axis_drops
from morphsurf.dynamics import cell_indices
from morphsurf.engine import _grid_orientation_terms
from morphsurf.surface import FieldError
from conftest import allocation_reference, locate_cell, object_arrays

# The running example: S(5,4) with reference cell (3,1) and stroke 100.
CFG = SurfaceConfig(n=5, m=4, W=2.0, L=2.0, stroke=100.0, ref_col=3, ref_row=1)


def objects_in_cells(cells, cfg):
    """(x, y, vx, vy) arrays of objects at rest at the given cells' centres."""
    return object_arrays(
        [ObjectState((i - 0.5) * cfg.W, (j - 0.5) * cfg.L) for i, j in cells]
    )


def occupancy_sets(objects, cfg):
    x, y, _, _ = objects
    return control.occupancy_sets(x, y, cfg)


def commanded_input(objects, mode, params, cfg):
    return control.command(*objects, mode, params, cfg)[0]


def control_tick(objects, mode, params, cfg):
    return control.command(*objects, mode, params, cfg)[1]


# One object in each column and each row off the reference: full occupancy.
EXAMPLE_CELLS = [(1, 2), (2, 4), (5, 3), (4, 1)]
HOME = objects_in_cells([(3, 1)], CFG)  # every object in the reference cell


class TestOccupancySets:
    def test_empty_surface(self):
        assert occupancy_sets(object_arrays([]), CFG) == ([], [])

    def test_all_in_reference(self):
        s = occupancy_sets(objects_in_cells([(3, 1), (3, 1)], CFG), CFG)
        assert s == ([2], [0])

    def test_example_surface(self):
        s = occupancy_sets(objects_in_cells(EXAMPLE_CELLS, CFG), CFG)
        assert s == ([0, 1, 3, 4], [0, 1, 2, 3])

    def test_single_neighbor(self):
        s = occupancy_sets(objects_in_cells([(3, 2)], CFG), CFG)
        assert s == ([2], [1])

    @staticmethod
    def sets_by_locate_cell(xs, ys, cfg):
        cells = [locate_cell(a, b, cfg) for a, b in zip(xs, ys)]
        return sorted({c - 1 for c, _ in cells}), sorted({r - 1 for _, r in cells})

    @pytest.mark.parametrize("cfg", [
        CFG,
        SurfaceConfig(5, 4, 0.1, 0.3, 1.0, 3, 2),  # multiples of W round both ways
        SurfaceConfig(3, 7, 2.0 / 3.0, 0.7, 1.0, 1, 7),
        SurfaceConfig(1, 1, 0.3, 0.3, 1.0, 1, 1),
    ])
    def test_boundaries_and_far_walls_match_locate_cell(self, cfg):
        grid = np.meshgrid(edges(cfg.n, cfg.W, cfg.width), edges(cfg.m, cfg.L, cfg.length))
        xs, ys = (a.ravel().tolist() for a in grid)
        assert 0.0 <= min(xs) and max(xs) == cfg.width and max(ys) == cfg.length
        ci, cj = cell_indices(np.array(xs), np.array(ys), cfg)
        cells = [locate_cell(a, b, cfg) for a, b in zip(xs, ys)]
        assert list(zip((ci + 1).tolist(), (cj + 1).tolist())) == cells
        for a, b in zip(xs, ys):
            got = control.occupancy_sets(np.array([a]), np.array([b]), cfg)
            assert got == self.sets_by_locate_cell([a], [b], cfg)
        rng = np.random.default_rng(11)
        for _ in range(50):
            pick = rng.choice(len(xs), size=3)
            got = control.occupancy_sets(np.array(xs)[pick], np.array(ys)[pick], cfg)
            assert got == self.sets_by_locate_cell(
                [xs[k] for k in pick], [ys[k] for k in pick], cfg
            )

    @pytest.mark.parametrize("x, y", [
        (np.nextafter(0.0, -1.0), 1.0),
        (np.nextafter(CFG.width, np.inf), 1.0),
        (1.0, np.nextafter(CFG.length, np.inf)),
        (float("nan"), 1.0),
        (1.0, float("-inf")),
    ])
    def test_outside_workspace_raises_like_locate_cell(self, x, y):
        # the first position outside the workspace is named, in x and in y;
        # the one after it is not
        with pytest.raises(ValueError):
            locate_cell(x, y, CFG)
        xs, ys, still = np.array([1.0, x, -1.0]), np.array([1.0, y, -1.0]), np.zeros(3)
        text = (f"position ({float(x)}, {float(y)}) outside workspace "
                f"[0,{CFG.width}]x[0,{CFG.length}]")
        calls = [lambda: control.occupancy_sets(xs, ys, CFG)] + [
            lambda mode=mode: control.command(xs, ys, still, still, mode, ControllerParams(), CFG)
            for mode in ("distributed", "wave")
        ]
        for call in calls:
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == text


def edges(count, size, extent):
    """Every boundary k * size, the far wall, and their float neighbours,
    inside [0, extent]."""
    pts = [k * size for k in range(count + 1)] + [extent, -0.0]
    pts += [np.nextafter(p, -np.inf) for p in pts]
    pts += [np.nextafter(p, np.inf) for p in pts]
    return [p for p in pts if 0.0 <= p <= extent]


class TestAxisDrops:
    def test_each_side_shares_its_stroke(self):
        assert axis_drops([0, 1, 3, 4], 5, 3, 50.0) == (25.0, 25.0, 0.0, -25.0, -25.0)
        assert axis_drops([1, 2, 4], 5, 4, 30.0) == (0.0, 15.0, 15.0, 0.0, -30.0)

    def test_reference_line_stays_level(self):
        assert axis_drops([2], 5, 3, 50.0) == (0.0,) * 5
        assert axis_drops(range(1), 1, 1, 1.0) == (0.0,)


class TestDistributedAllocation:
    def test_example_values(self):
        u = commanded_input(objects_in_cells(EXAMPLE_CELLS, CFG), "distributed",
                          ControllerParams(), CFG)
        np.testing.assert_allclose(u.dz_col, [25, 25, 0, -25, -25])
        np.testing.assert_allclose(u.dz_row, [0, -50 / 3, -50 / 3, -50 / 3])

    def test_empty_sets_level_surface(self):
        u = commanded_input(HOME, "distributed", ControllerParams(), CFG)
        assert all(v == 0 for v in u.dz_col)
        assert all(v == 0 for v in u.dz_row)

    def test_full_occupancy_equals_funnel(self):
        full = objects_in_cells(EXAMPLE_CELLS, CFG)
        u = commanded_input(full, "distributed", ControllerParams(), CFG)
        f = commanded_input(full, "funnel", ControllerParams(), CFG)
        assert u.dz_col == f.dz_col
        assert u.dz_row == f.dz_row

    def test_allocation_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            cfg = SurfaceConfig(n, m, 2.0, 2.0, 1.0, int(rng.integers(1, n + 1)),
                                int(rng.integers(1, m + 1)))
            cells = [
                (int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1)))
                for _ in range(6)
            ]
            objects = objects_in_cells(cells, cfg)
            cols, rows = occupancy_sets(objects, cfg)
            a = float(rng.uniform(0, 1))
            u = commanded_input(objects, "distributed", ControllerParams(a, 1 - a), cfg)
            left = [c for c in cols if c < cfg.ref_col - 1]
            right = [c for c in cols if c > cfg.ref_col - 1]
            above = [r for r in rows if r > cfg.ref_row - 1]
            if left:
                assert sum(u.dz_col[c] for c in left) == pytest.approx(a * cfg.stroke)
            if right:
                assert sum(u.dz_col[c] for c in right) == pytest.approx(-a * cfg.stroke)
            if above:
                total = sum(u.dz_row[r] for r in above)
                assert total == pytest.approx(-(1 - a) * cfg.stroke)


class TestWave:
    def test_example_values(self):
        u = commanded_input(objects_in_cells(EXAMPLE_CELLS, CFG), "wave",
                          ControllerParams(), CFG)
        np.testing.assert_allclose(u.dz_col, [50, 0, 0, 0, -50])
        np.testing.assert_allclose(u.dz_row, [0, 0, 0, -50])

    def test_empty_sets(self):
        u = commanded_input(HOME, "wave", ControllerParams(), CFG)
        assert all(v == 0 for v in u.dz_col)
        assert all(v == 0 for v in u.dz_row)

    def test_singleton_far_corner(self):
        u = commanded_input(objects_in_cells([(5, 4)], CFG), "wave",
                          ControllerParams(0.4, 0.6), CFG)
        nz_col = [v for v in u.dz_col if v != 0]
        nz_row = [v for v in u.dz_row if v != 0]
        assert nz_col == [-0.4 * CFG.stroke]
        assert nz_row == [-0.6 * CFG.stroke]

    def test_sparsity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cells = [
                (int(rng.integers(1, 6)), int(rng.integers(1, 5))) for _ in range(8)
            ]
            u = commanded_input(objects_in_cells(cells, CFG), "wave", ControllerParams(), CFG)
            pos = [v for v in u.dz_col if v > 0]
            neg = [v for v in u.dz_col if v < 0]
            assert len(pos) <= 1 and len(neg) <= 1
            assert all(abs(v) == 0.5 * CFG.stroke for v in pos + neg)


def funnel(a, cfg):
    """The funnel's input for stroke split (a, 1 - a); it reads no object."""
    return commanded_input(object_arrays([]), "funnel", ControllerParams(a, 1.0 - a), cfg)


class TestStaticFunnel:
    def test_example_values(self):
        u = funnel(0.5, CFG)
        np.testing.assert_allclose(u.dz_col, [25, 25, 0, -25, -25])
        np.testing.assert_allclose(u.dz_row, [0, -50 / 3, -50 / 3, -50 / 3])

    def test_single_cell_is_level(self):
        u = funnel(0.5, SurfaceConfig(1, 1, 2.0, 2.0, 1.0, 1, 1))
        assert u.dz_col == (0.0,)
        assert u.dz_row == (0.0,)

    def test_single_track(self):
        u = funnel(0.0, SurfaceConfig(1, 10, 2.0, 2.0, 1.0, 1, 10))
        np.testing.assert_allclose(u.dz_row[:9], [1.0 / 9] * 9)
        assert u.dz_row[9] == 0.0


@st.composite
def allocation_cases(draw):
    """A surface from 1x1 to 12x12 with the reference anywhere, 1-30 objects
    (some on cell boundaries and the far walls), a mode and a stroke split."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    size = st.floats(0.1, 5.0)
    cfg = SurfaceConfig(n, m, draw(size), draw(size), draw(size),
                        draw(st.integers(1, n)), draw(st.integers(1, m)))

    def coordinate(count, size, extent):
        return st.floats(0.0, extent) | st.sampled_from(edges(count, size, extent))

    points = draw(st.lists(
        st.tuples(coordinate(n, cfg.W, cfg.width), coordinate(m, cfg.L, cfg.length)),
        min_size=1, max_size=30,
    ))
    x, y = (np.array(c, dtype=float) for c in zip(*points))
    a = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    params = ControllerParams(a, 1.0 - a, hardware_split=draw(st.booleans()))
    return x, y, draw(st.sampled_from(["distributed", "wave", "funnel"])), params, cfg


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestAllocationOracle:
    """The one per-axis rule gives bit for bit what each controller written
    out for both sides of both axes gives (``conftest.allocation_reference``),
    signed zeros included."""

    @settings(max_examples=300, deadline=None)
    @given(allocation_cases())
    def test_command_matches_the_reference(self, case):
        # with and without the cells engine.run hands command; funnel and
        # hardware_split, which do not read them, are drawn too
        x, y, mode, params, cfg = case
        want_u, want_grid = allocation_reference(x, y, mode, params, cfg)
        still = np.zeros_like(x)
        for cells in (None, cell_indices(x, y, cfg)):
            got_u, got_grid = control.command(x, y, still, still, mode, params, cfg, cells)
            assert same_bits(got_u.dz_col, want_u.dz_col)
            assert same_bits(got_u.dz_row, want_u.dz_row)
            assert same_bits(got_grid.col_heights, want_grid.col_heights)
            assert same_bits(got_grid.row_heights, want_grid.row_heights)


class TestSingleCellFeedback:
    CELL = SurfaceConfig(1, 1, 2.0, 2.0, 1.0, 1, 1)
    GAINS = SingleCellGains(kx=0.25, ky=0.25)  # the admissibility bounds

    def test_at_target(self):
        # at rest at the target
        dz1, dz2, z = single_cell_feedback(0.0, 0.0, self.GAINS, self.CELL, 0.0, 0.0)
        assert dz1 == 0 and dz2 == 0
        assert z == (0.5, 0.5, 0.5, 0.5)

    def test_velocity_damps_motion(self):
        # at the target but moving east: tilt so the object is pushed west,
        # exactly as an eastward error of SINGLE_CELL_KD * v_x at rest would
        dz1, dz2, _ = single_cell_feedback(0.0, 0.0, self.GAINS, self.CELL, 0.2, 0.0)
        assert dz1 < 0 and dz2 == 0
        at_rest = single_cell_feedback(
            SINGLE_CELL_KD * 0.2, 0.0, self.GAINS, self.CELL, 0.0, 0.0
        )
        assert dz1 == at_rest[0]

    def test_saturated_far_error(self):
        dz1, _, _ = single_cell_feedback(
            10 * self.CELL.W, 0.0, self.GAINS, self.CELL, 0.0, 0.0
        )
        assert dz1 == pytest.approx(-self.CELL.stroke / 2)

    def test_assignment_is_planar_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ex = rng.uniform(-3, 3)
            ey = rng.uniform(-3, 3)
            vx = rng.uniform(-3, 3)
            vy = rng.uniform(-3, 3)
            _, _, (z1, z2, z3, z4) = single_cell_feedback(
                ex, ey, self.GAINS, self.CELL, vx, vy
            )
            assert planar_completion(z1, z2, z4) == pytest.approx(z3, abs=1e-12)
            for z in (z1, z2, z3, z4):
                assert -1e-12 <= z <= self.CELL.stroke + 1e-12

    def test_inadmissible_gains_rejected(self):
        with pytest.raises(ValueError):
            single_cell_feedback(
                0.0, 0.0, SingleCellGains(kx=0.3, ky=0.25), self.CELL, 0.0, 0.0
            )

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.01, 1.0), st.data())
    def test_corners_are_those_of_the_commanded_grid(self, w, length, share, data):
        cfg = SurfaceConfig(1, 1, w, length, data.draw(st.floats(0.01, 10.0)), 1, 1)
        gains = SingleCellGains(share * cfg.stroke / (2 * w), cfg.stroke / (2 * length))
        x, y = data.draw(st.floats(0.0, w)), data.draw(st.floats(0.0, length))
        vx, vy = data.draw(st.floats(-1e3, 1e3)), data.draw(st.floats(-1e3, 1e3))
        dz1, dz2, corners = single_cell_feedback(x - w / 2.0, y - length / 2.0,
                                                 gains, cfg, vx, vy)
        u, grid = control.command(*(np.array([c]) for c in (x, y, vx, vy)),
                                  "single_cell", ControllerParams(gains=gains), cfg)
        h = grid.heights()
        assert same_bits(corners, [h[0, 0], h[1, 0], h[1, 1], h[0, 1]])
        assert same_bits((dz1, dz2), u.dz_col + u.dz_row)


def largest_accepted_gains(cfg: SurfaceConfig) -> SingleCellGains:
    """The largest kx and ky that SingleCellGains.validate accepts on
    ``cfg``, each found by bisection between its cap and far above it with
    the other gain at its cap."""
    caps = (cfg.stroke / (2 * cfg.W), cfg.stroke / (2 * cfg.L))

    def accepted(gains):
        try:
            SingleCellGains(*gains).validate(cfg)
        except FieldError:
            return False
        return True

    largest = []
    for axis, cap in enumerate(caps):
        lo, hi = cap, 2 * cap + 1.0
        assert accepted(caps) and not accepted(caps[:axis] + (hi,) + caps[axis + 1:])
        while lo < (mid := lo + (hi - lo) / 2) < hi:
            if accepted(caps[:axis] + (mid,) + caps[axis + 1:]):
                lo = mid
            else:
                hi = mid
        largest.append(lo)
    return SingleCellGains(*largest)


@st.composite
def commands(draw):
    """control.command's arguments: any mode on 1x1 to 8x8 cells (1x1 in
    single_cell mode) of 0.1 m to 1e15 m with a stroke of 0.01 to 10 m, any
    stroke split, no gains, gains at a share of their caps or the largest
    gains validate accepts, and 1-40 objects anywhere in the workspace at up
    to 1e3 m/s."""
    mode = draw(st.sampled_from(control.MODES))
    n, m = (1, 1) if mode == "single_cell" else (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    size = st.floats(0.1, 1e15)
    cfg = SurfaceConfig(n, m, draw(size), draw(size), draw(st.floats(0.01, 10.0)),
                        draw(st.integers(1, n)), draw(st.integers(1, m)))
    share = draw(st.sampled_from([None, "largest"]) | st.floats(0.01, 1.0))
    if share == "largest":
        gains = largest_accepted_gains(cfg)
    elif share is not None:
        gains = SingleCellGains(cfg.stroke / (2 * cfg.W) * share, cfg.stroke / (2 * cfg.L) * share)
    else:
        gains = None
    a = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    params = ControllerParams(a, 1.0 - a, gains, draw(st.booleans()))
    count = draw(st.integers(1, 40))
    speed = st.floats(-1e3, 1e3)
    x, y, vx, vy = (np.array(draw(st.lists(s, min_size=count, max_size=count)))
                    for s in (st.floats(0.0, cfg.width), st.floats(0.0, cfg.length),
                              speed, speed))
    return x, y, vx, vy, mode, params, cfg


class TestCommandedGridsAreFeasible:
    """Every grid command gives satisfies every constraint of validate_grid,
    the bounds [0, stroke] included, whatever the mode, surface, gains and
    objects."""

    @settings(max_examples=300, deadline=None)
    @given(commands())
    def test_every_commanded_grid_is_feasible(self, case):
        *_, cfg = case
        report = validate_grid(control.command(*case)[1], cfg)
        assert report.ok, report.summary()


class TestControlTick:
    def test_all_objects_home_levels_grid(self):
        for mode in ("distributed", "wave"):
            g = control_tick(
                objects_in_cells([(3, 1)], CFG), mode, ControllerParams(), CFG
            )
            assert np.all(g.heights() == 0)

    def test_wave_grid_example(self):
        g = control_tick(
            objects_in_cells(EXAMPLE_CELLS, CFG), "wave", ControllerParams(), CFG
        )
        np.testing.assert_allclose(g.col_heights, [50, 0, 0, 0, 0, 50])
        np.testing.assert_allclose(g.row_heights, [0, 0, 0, 0, 50])

    def test_funnel_constant_over_ticks(self):
        params = ControllerParams()
        first = control_tick(objects_in_cells(EXAMPLE_CELLS, CFG), "funnel", params, CFG)
        later = control_tick(objects_in_cells([(1, 1)], CFG), "funnel", params, CFG)
        assert first == later

    def test_single_cell_requires_1x1(self):
        # refused once, when the Scenario whose ticks would run it loads
        with pytest.raises(ValueError, match="single_cell needs a 1x1 surface, got 5x4"):
            Scenario(cfg=CFG, physics=PhysicsParams(), mode="single_cell",
                     objects=(ObjectState(5.0, 1.0),), t_max=1.0)


class TestDirectionCorrectness:
    def test_single_object_accelerates_toward_reference(self):
        # gravity from the field build the engine runs on the commanded grid
        p = PhysicsParams()
        params = ControllerParams()
        for mode in ("distributed", "wave", "funnel"):
            for cell in [(1, 1), (5, 4), (3, 4), (1, 2), (4, 1), (2, 3)]:
                if cell == (CFG.ref_col, CFG.ref_row):
                    continue
                objs = objects_in_cells([cell], CFG)
                grid = control_tick(objs, mode, params, CFG)
                gx, gy = _grid_orientation_terms(
                    np.asarray(grid.col_heights), np.asarray(grid.row_heights), CFG, p.gravity
                )
                i, j = cell
                ax, ay = gx[i - 1, j - 1], gy[i - 1, j - 1]
                to_ref = (
                    (CFG.ref_col - i) * CFG.W,
                    (CFG.ref_row - j) * CFG.L,
                )
                assert ax * to_ref[0] + ay * to_ref[1] >= 0
                if i != CFG.ref_col:
                    assert ax * to_ref[0] > 0
                if j != CFG.ref_row:
                    assert ay * to_ref[1] > 0


class TestHardwareSplit:
    def test_full_stroke_to_dominant_axis(self):
        params = ControllerParams(hardware_split=True)
        objs = objects_in_cells([(1, 1)], CFG)  # error only along x
        u = commanded_input(objs, "wave", params, CFG)
        assert max(abs(v) for v in u.dz_col) == CFG.stroke
        assert all(v == 0 for v in u.dz_row)

    def test_axis_errors_are_a_left_fold_not_a_compensated_sum(self):
        # x errors 1 + 2**-53 + 2**-53 fold to 1.0 from the left but are
        # 1 + 2**-52 exactly (math.fsum, and sum() from Python 3.12 on), a
        # tie with the y error that would go to x; the left fold picks y
        cfg = SurfaceConfig(n=2, m=2, W=1.0, L=1.0, stroke=1.0, ref_col=1, ref_row=1)
        x = np.array([1.5, 0.5 + 2.0**-53, 0.5 + 2.0**-53])
        y = np.array([1.5 + 2.0**-52, 0.5, 0.5])
        ex, ey = np.abs(x - 0.5).tolist(), np.abs(y - 0.5).tolist()
        assert math.fsum(ex) == math.fsum(ey) == 1.0 + 2.0**-52
        params = ControllerParams(hardware_split=True)
        assert control.split_fractions(x, y, params, cfg) == (0.0, 1.0)
