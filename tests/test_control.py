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
    acceleration,
    locate_cell,
    planar_completion,
    single_cell_feedback,
)
from morphsurf import control
from morphsurf.control import SINGLE_CELL_KD, axis_drops
from morphsurf.dynamics import cell_indices
from conftest import allocation_reference, object_arrays

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


def control_input(objects, mode, params, cfg):
    x, y, _, _ = objects
    return control.control_input(x, y, mode, params, cfg)


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
        cells = [locate_cell(ObjectState(a, b), cfg) for a, b in zip(xs, ys)]
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
        cells = [locate_cell(ObjectState(a, b), cfg) for a, b in zip(xs, ys)]
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
        with pytest.raises(ValueError) as expected:
            locate_cell(ObjectState(x, y), CFG)
        with pytest.raises(ValueError) as got:
            control.occupancy_sets(np.array([1.0, x]), np.array([1.0, y]), CFG)
        assert str(got.value) == str(expected.value)


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
        u = control_input(objects_in_cells(EXAMPLE_CELLS, CFG), "distributed",
                          ControllerParams(), CFG)
        np.testing.assert_allclose(u.dz_col, [25, 25, 0, -25, -25])
        np.testing.assert_allclose(u.dz_row, [0, -50 / 3, -50 / 3, -50 / 3])

    def test_empty_sets_level_surface(self):
        u = control_input(HOME, "distributed", ControllerParams(), CFG)
        assert all(v == 0 for v in u.dz_col)
        assert all(v == 0 for v in u.dz_row)

    def test_full_occupancy_equals_funnel(self):
        full = objects_in_cells(EXAMPLE_CELLS, CFG)
        u = control_input(full, "distributed", ControllerParams(), CFG)
        f = control_input(full, "funnel", ControllerParams(), CFG)
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
            u = control_input(objects, "distributed", ControllerParams(a, 1 - a), cfg)
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
        u = control_input(objects_in_cells(EXAMPLE_CELLS, CFG), "wave",
                          ControllerParams(), CFG)
        np.testing.assert_allclose(u.dz_col, [50, 0, 0, 0, -50])
        np.testing.assert_allclose(u.dz_row, [0, 0, 0, -50])

    def test_empty_sets(self):
        u = control_input(HOME, "wave", ControllerParams(), CFG)
        assert all(v == 0 for v in u.dz_col)
        assert all(v == 0 for v in u.dz_row)

    def test_singleton_far_corner(self):
        u = control_input(objects_in_cells([(5, 4)], CFG), "wave",
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
            u = control_input(objects_in_cells(cells, CFG), "wave", ControllerParams(), CFG)
            pos = [v for v in u.dz_col if v > 0]
            neg = [v for v in u.dz_col if v < 0]
            assert len(pos) <= 1 and len(neg) <= 1
            assert all(abs(v) == 0.5 * CFG.stroke for v in pos + neg)


def funnel(a, cfg):
    """The funnel's input for stroke split (a, 1 - a); it reads no object."""
    return control_input(object_arrays([]), "funnel", ControllerParams(a, 1.0 - a), cfg)


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
        x, y, mode, params, cfg = case
        want_u, want_grid = allocation_reference(x, y, mode, params, cfg)
        u = control.control_input(x, y, mode, params, cfg)
        got_u, got_grid = control.command(x, y, np.zeros_like(x), np.zeros_like(y),
                                          mode, params, cfg)
        for got in (u, got_u):
            assert same_bits(got.dz_col, want_u.dz_col)
            assert same_bits(got.dz_row, want_u.dz_row)
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
        p = PhysicsParams()
        params = ControllerParams()
        from morphsurf import cell_orientation

        for mode in ("distributed", "wave", "funnel"):
            for cell in [(1, 1), (5, 4), (3, 4), (1, 2), (4, 1), (2, 3)]:
                if cell == (CFG.ref_col, CFG.ref_row):
                    continue
                objs = objects_in_cells([cell], CFG)
                grid = control_tick(objs, mode, params, CFG)
                col = np.asarray(grid.col_heights)
                row = np.asarray(grid.row_heights)
                i, j = cell
                o = cell_orientation(col[i - 1] - col[i], row[j - 1] - row[j], CFG)
                ax, ay = acceleration(o, 0.0, 0.0, p)
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
        u = control_input(objs, "wave", params, CFG)
        assert max(abs(v) for v in u.dz_col) == CFG.stroke
        assert all(v == 0 for v in u.dz_row)
