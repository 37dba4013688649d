import math

import numpy as np
import pytest

from morphsurf import (
    ControlInput,
    InfeasibleControlError,
    SurfaceConfig,
    cell_orientation,
    dof_count,
    planar_completion,
    reconstruct_actuator_grid,
    validate_grid,
)
from morphsurf.control import ControllerParams, command
from morphsurf.surface import _component_heights
from conftest import (
    component_heights_reference,
    orientation_field,
    random_config,
    random_feasible_input,
    validate_grid_reference,
)

CFG = SurfaceConfig(n=5, m=4, W=2.0, L=2.0, stroke=1.0, ref_col=3, ref_row=1)


class TestPlanarCompletion:
    def test_level_planes(self):
        assert planar_completion(0, 0, 0) == 0
        assert planar_completion(50, 50, 50) == 50

    def test_direct_arithmetic(self):
        assert planar_completion(10, 20, 40) == 50


class TestCellOrientation:
    def test_flat(self):
        o = cell_orientation(0.0, 0.0, CFG)
        assert o.pitch == 0.0 and o.roll == 0.0

    def test_unit_slopes(self):
        o = cell_orientation(CFG.W, 0.0, CFG)
        assert o.pitch == pytest.approx(math.pi / 4)
        assert o.roll == 0.0
        o = cell_orientation(0.0, CFG.L, CFG)
        assert o.pitch == 0.0
        assert o.roll == pytest.approx(-math.pi / 4)

    def test_open_range(self):
        o = cell_orientation(100 * CFG.W, -100 * CFG.L, CFG)
        assert abs(o.pitch) < math.pi / 2
        assert abs(o.roll) < math.pi / 2


class TestOrientationField:
    def test_flat_everywhere(self):
        u = ControlInput((0.0,) * 5, (0.0,) * 4)
        field = orientation_field(u, CFG)
        for col in field:
            for o in col:
                assert o.pitch == 0.0 and o.roll == 0.0

    def test_equal_pitch_gives_equal_roll(self):
        cfg = SurfaceConfig(2, 3, 2.0, 2.0, 1.0, 1, 1)
        u = ControlInput((0.2, 0.2), (0.0, -0.1, -0.2))
        field = orientation_field(u, cfg)
        for j in range(cfg.m):
            assert field[0][j].roll == pytest.approx(field[1][j].roll, abs=1e-15)

    def test_nonholonomic_roll_relation(self):
        # Column pitches 20 and 40 degrees: the second column's roll follows
        # arctan((cos40/cos20) tan(roll of column 1)).
        cfg = SurfaceConfig(2, 2, 2.0, 2.0, 1.0, 1, 1)
        t20, t40 = math.radians(20), math.radians(40)
        u = ControlInput((cfg.W * math.tan(t20), cfg.W * math.tan(t40)), (0.3, -0.4))
        field = orientation_field(u, cfg)
        scale = math.cos(t40) / math.cos(t20)
        for j in range(2):
            expected = math.atan(scale * math.tan(field[0][j].roll))
            assert field[1][j].roll == pytest.approx(expected, abs=1e-12)

    def test_matches_per_cell_corner_kinematics(self):
        # Same field recomputed independently from separable corner heights.
        cfg = SurfaceConfig(2, 2, 2.0, 2.0, 1.0, 1, 1)
        t20, t40 = math.radians(20), math.radians(40)
        dz_col = (cfg.W * math.tan(t20), cfg.W * math.tan(t40))
        dz_row = (0.3, -0.4)
        u = ControlInput(dz_col, dz_row)
        field = orientation_field(u, cfg)

        col = np.array([0.0, -dz_col[0], -dz_col[0] - dz_col[1]])
        row = np.array([0.0, -dz_row[0], -dz_row[0] - dz_row[1]])
        h = np.add.outer(col, row)
        for i in range(2):
            for j in range(2):
                o = cell_orientation(
                    h[i, j] - h[i + 1, j], h[i, j] - h[i, j + 1], cfg
                )
                assert field[i][j].pitch == pytest.approx(o.pitch, abs=1e-12)
                assert field[i][j].roll == pytest.approx(o.roll, abs=1e-12)

    def test_dimension_mismatch(self):
        u = ControlInput((0.0,) * 4, (0.0,) * 4)
        with pytest.raises(ValueError, match=r"control input \(4,4\) does not match grid \(5,4\)"):
            reconstruct_actuator_grid(u, CFG)


class TestReconstruct:
    def test_all_zero(self):
        u = ControlInput((0.0,) * 5, (0.0,) * 4)
        g = reconstruct_actuator_grid(u, CFG)
        assert np.all(g.heights() == 0)

    def test_two_cell_slope(self):
        cfg = SurfaceConfig(2, 1, 2.0, 2.0, 100.0, 1, 1)
        u = ControlInput((0.0, -50.0), (0.0,))
        g = reconstruct_actuator_grid(u, cfg)
        np.testing.assert_allclose(g.col_heights, [0.0, 0.0, 50.0])

    def test_symmetric_bowl(self):
        cfg = SurfaceConfig(5, 1, 2.0, 2.0, 100.0, 3, 1)
        u = ControlInput((25.0, 25.0, 0.0, -25.0, -25.0), (0.0,))
        g = reconstruct_actuator_grid(u, cfg)
        np.testing.assert_allclose(g.col_heights, [50, 25, 0, 0, 25, 50])
        diffs = np.asarray(g.col_heights[:-1]) - np.asarray(g.col_heights[1:])
        np.testing.assert_allclose(diffs, u.dz_col)

    def test_difference_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = random_config(rng)
            u = random_feasible_input(rng, cfg)
            g = reconstruct_actuator_grid(u, cfg)
            col = np.asarray(g.col_heights)
            row = np.asarray(g.row_heights)
            np.testing.assert_allclose(col[:-1] - col[1:], u.dz_col, atol=1e-12)
            np.testing.assert_allclose(row[:-1] - row[1:], u.dz_row, atol=1e-12)
            # reference cell actuators level with the datum
            assert col[cfg.ref_col - 1] == pytest.approx(0.0, abs=1e-12)
            assert col[cfg.ref_col] == pytest.approx(0.0, abs=1e-12)
            assert row[cfg.ref_row - 1] == pytest.approx(0.0, abs=1e-12)
            assert row[cfg.ref_row] == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_names_actuator(self):
        cfg = SurfaceConfig(2, 1, 2.0, 2.0, 1.0, 1, 1)
        u = ControlInput((0.0, 2.0), (0.0,))
        with pytest.raises(InfeasibleControlError, match=r"actuator \(3,"):
            reconstruct_actuator_grid(u, cfg)

    @pytest.mark.parametrize("u", [
        ControlInput((math.nan, 0.0, 0.0), (0.0, 0.0)),
        ControlInput((0.0, math.nan, 0.0), (0.0, 0.0)),
        ControlInput((0.0, 0.0, 0.0), (0.0, math.nan)),
    ])
    def test_nan_drop_is_infeasible(self, u):
        # min and max skip a NaN height unless it comes first
        cfg = SurfaceConfig(3, 2, 2.0, 2.0, 1.0, 1, 1)
        with pytest.raises(InfeasibleControlError, match=r"height nan m"):
            reconstruct_actuator_grid(u, cfg)

    def test_monotone_geometry(self):
        # Drops pointing at the reference put the minimum at the reference.
        rng = np.random.default_rng(13)
        for _ in range(50):
            cfg = random_config(rng)
            u = random_feasible_input(rng, cfg)
            g = reconstruct_actuator_grid(u, cfg)
            col = np.asarray(g.col_heights)
            row = np.asarray(g.row_heights)
            assert col.min() == pytest.approx(col[cfg.ref_col - 1], abs=1e-12)
            assert row.min() == pytest.approx(row[cfg.ref_row - 1], abs=1e-12)


def controller_axes(rng, draws):
    """(heights, oracle heights, ref, drops, stroke) of both axes of ``draws``
    grids commanded by a random multi-cell controller for random objects:
    the three modes, stroke splits 0, 1 and random, hardware split on and
    off, up to 16 lines per axis."""
    for _ in range(draws):
        cfg = random_config(rng, max_n=16, max_m=16)
        a = float(rng.choice([0.0, 1.0, rng.uniform()]))
        params = ControllerParams(a, 1.0 - a, hardware_split=bool(rng.integers(2)))
        k = int(rng.integers(1, 30))
        x, y = rng.uniform(0, cfg.width, k), rng.uniform(0, cfg.length, k)
        mode = str(rng.choice(["distributed", "wave", "funnel"]))
        u = command(x, y, np.zeros(k), np.zeros(k), mode, params, cfg)[0]
        g = reconstruct_actuator_grid(u, cfg)
        for heights, dz, ref in ((g.col_heights, u.dz_col, cfg.ref_col),
                                 (g.row_heights, u.dz_row, cfg.ref_row)):
            yield heights, component_heights_reference(dz, ref), ref, len(dz), cfg.stroke


class TestComponentHeights:
    def test_short_axes_match_per_slice_sums_bitwise(self):
        # below 8 drops numpy adds a slice one drop at a time from 0.0; on a
        # controller's equal drops per side the running sum gives the same
        # bits, signed zeros included
        short = 0
        for heights, oracle, ref, n, _ in controller_axes(np.random.default_rng(29), 1500):
            if max(ref, n - ref) < 8:
                short += 1
                assert np.array(heights).tobytes() == np.array(oracle).tobytes()
        assert short > 1000

    def test_signed_zero_drops_match_per_slice_sums_bitwise(self):
        # controller-shaped axes (equal drops per side, a zero on the
        # reference line) with -0.0 in any place, the reference line too
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            ref = int(rng.integers(1, n + 1))
            side = {-1: rng.uniform(0, 1), 0: 0.0, 1: -rng.uniform(0, 1)}
            dz = tuple(float(rng.choice([0.0, -0.0, side[np.sign(i - ref + 1)]]))
                       for i in range(n))
            assert (np.array(_component_heights(dz, ref)).tobytes()
                    == np.array(component_heights_reference(dz, ref)).tobytes())

    def test_long_axes_within_4_ulp_of_the_stroke(self):
        long = 0
        for heights, oracle, ref, n, stroke in controller_axes(np.random.default_rng(31), 1500):
            if max(ref, n - ref) >= 8:
                long += 1
                assert np.max(np.abs(np.subtract(heights, oracle))) <= 4 * math.ulp(stroke)
        assert long > 100


class TestValidateGrid:
    def test_constructed_grids_clean(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            cfg = random_config(rng)
            g = reconstruct_actuator_grid(random_feasible_input(rng, cfg), cfg)
            assert validate_grid(g, cfg).ok

    def test_planarity_residual_machine_precision(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            cfg = random_config(rng)
            g = reconstruct_actuator_grid(random_feasible_input(rng, cfg), cfg)
            h = g.heights()
            for i in range(cfg.n):
                for j in range(cfg.m):
                    res = abs(h[i + 1, j + 1] + h[i, j] - h[i + 1, j] - h[i, j + 1])
                    assert res <= 1e-12 * cfg.stroke

    def test_perturbed_corner_flags_sharing_cells(self):
        g = reconstruct_actuator_grid(
            ControlInput((0.1, 0.1, 0.0, -0.1, -0.1), (0.0, -0.1, -0.1, -0.1)),
            CFG,
        )
        h = g.heights()
        h[2, 2] += 1e-3  # interior actuator (3,3): shared by four cells
        report = validate_grid(h, CFG, tol=1e-6)
        flagged = {cell for cell, _ in report.planarity}
        assert flagged == {(2, 2), (3, 2), (2, 3), (3, 3)}

    def test_twisted_quad_residual(self):
        cfg = SurfaceConfig(1, 1, 2.0, 2.0, 1.0, 1, 1)
        eps = 1e-4
        h = np.array([[0.0, 0.0], [0.0, eps]])
        report = validate_grid(h, cfg, tol=1e-9)
        assert len(report.planarity) == 1
        assert report.planarity[0][1] == pytest.approx(eps)

    def test_bound_violation(self):
        cfg = SurfaceConfig(1, 1, 2.0, 2.0, 1.0, 1, 1)
        h = np.full((2, 2), 1.01)
        report = validate_grid(h, cfg)
        assert len(report.bounds) == 4

    def test_nan_height_is_a_bound_violation(self):
        cfg = SurfaceConfig(1, 1, 2.0, 2.0, 1.0, 1, 1)
        h = np.zeros((2, 2))
        h[1, 0] = math.nan
        report = validate_grid(h, cfg)
        assert not report.ok
        assert [act for act, _ in report.bounds] == [(2, 1)]
        assert "bounds: actuator (2, 1) height nan m" in report.summary()

    def test_matches_per_cell_loop(self):
        # same flagged entries in the same order as the loop oracle; values
        # within 1e-14 * max(1, |v|), the array trig differing in last bits
        rng = np.random.default_rng(37)
        kinds = {"feasible": 0, "perturbed": 0, "out of bounds": 0, "nan": 0}
        for draw in range(400):
            cfg = random_config(rng)
            h = reconstruct_actuator_grid(random_feasible_input(rng, cfg), cfg).heights()
            kind = list(kinds)[draw % 4]
            hit = rng.random(h.shape) < 0.3
            if kind == "perturbed":
                h[hit] += 10.0 ** rng.uniform(-12, -1, h.shape)[hit] * rng.choice([-1, 1], h.shape)[hit]
            elif kind == "out of bounds":
                h[hit] += rng.uniform(-2, 2, h.shape)[hit] * cfg.stroke
            elif kind == "nan":
                h[hit] = math.nan
            got = validate_grid(h, cfg)
            want = validate_grid_reference(h, cfg)
            kinds[kind] += not want.ok
            for name in ("planarity", "pitch", "roll", "bounds"):
                g, w = getattr(got, name), getattr(want, name)
                assert [at for at, _ in g] == [at for at, _ in w], name
                for (at, gv), (_, wv) in zip(g, w):
                    assert {type(k) for k in (at if name != "pitch" else (at,))} == {int}
                    assert type(gv) is float
                    assert gv == pytest.approx(wv, rel=1e-14, abs=1e-14, nan_ok=True), name
        assert min(list(kinds.values())[1:]) > 50


class TestDofCount:
    def test_two_cell_column(self):
        assert dof_count(SurfaceConfig(1, 2, 2, 2, 1, 1, 1))[2] == 3

    def test_square(self):
        assert dof_count(SurfaceConfig(2, 2, 2, 2, 1, 1, 1))[2] == 4

    def test_formula(self):
        assert dof_count(SurfaceConfig(5, 4, 2, 2, 1, 3, 1)) == (40, 31, 9)


class TestRoundTrip:
    def test_field_matches_reconstructed_corners(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            cfg = random_config(rng)
            u = random_feasible_input(rng, cfg)
            field = orientation_field(u, cfg)
            h = reconstruct_actuator_grid(u, cfg).heights()
            for i in range(cfg.n):
                for j in range(cfg.m):
                    o = cell_orientation(
                        h[i, j] - h[i + 1, j], h[i, j] - h[i, j + 1], cfg
                    )
                    assert abs(field[i][j].pitch - o.pitch) < 1e-9
                    assert abs(field[i][j].roll - o.roll) < 1e-9
