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
from conftest import orientation_field, random_config, random_feasible_input

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
