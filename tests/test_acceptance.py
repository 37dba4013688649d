"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runtime budgets are asserted where a criterion states one.  The docstrings
of 4b (wave steady-speed plateau) and 7b (frictionless single-cell
convergence) carry the measurements behind what those tests assert.
"""

import json
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from morphsurf import (
    CellOrientation,
    ControllerParams,
    ObjectState,
    PhysicsParams,
    SingleCellGains,
    SurfaceConfig,
    cell_orientation,
    reconstruct_actuator_grid,
    validate_grid,
)
from morphsurf import scenario as sio
from morphsurf.cli import EXIT_OK, EXIT_UNSETTLED, main
from morphsurf.control import command, single_cell_feedback
from morphsurf.dynamics import advance, cell_indices
from morphsurf.engine import batch, run

from conftest import (
    gravity_field,
    object_arrays,
    orientation_field,
    random_config,
    random_feasible_input,
    slaved_energy,
    steady_speed,
    step,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(name: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {state}{suffix}")
    return ok


class TestC1KinematicsInvariants:
    def test_randomized_grids_satisfy_all_constraints(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(1000):
            cfg = random_config(rng, 8, 8)
            u = random_feasible_input(rng, cfg)
            grid = reconstruct_actuator_grid(u, cfg)
            rep = validate_grid(grid, cfg, tol=1e-9, angle_tol=1e-9)
            if not rep.ok:
                violations += 1
        elapsed = time.perf_counter() - start
        ok = violations == 0 and elapsed < 5.0
        assert report(
            "1 kinematics-invariants", ok,
            f"{violations} violating grids, {elapsed:.2f}s",
        )


def _constraint_residuals(angles: np.ndarray, n: int, m: int) -> np.ndarray:
    """Pitch-equality and roll-relation residuals over the 2nm cell angles."""
    theta = angles[: n * m].reshape(n, m)
    phi = angles[n * m :].reshape(n, m)
    res = []
    for i in range(n):
        for j in range(1, m):
            res.append(theta[i, j] - theta[i, 0])
    for j in range(m):
        for i in range(n - 1):
            res.append(
                math.tan(phi[i + 1, j]) / math.cos(theta[i + 1, j])
                - math.tan(phi[i, j]) / math.cos(theta[i, j])
            )
    return np.array(res)


class TestC2DofRank:
    def test_constraint_jacobian_rank_matches_dof_formula(self):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        eps = 1e-6
        bad = []
        for n in range(1, 5):
            for m in range(1, 5):
                cfg = SurfaceConfig(n, m, 2.0, 2.0, 1.0,
                                    int(rng.integers(1, n + 1)),
                                    int(rng.integers(1, m + 1)))
                field = orientation_field(
                    random_feasible_input(rng, cfg), cfg
                )
                angles = np.concatenate([
                    np.array([[o.pitch for o in col] for col in field]).ravel(),
                    np.array([[o.roll for o in col] for col in field]).ravel(),
                ])
                n_res = len(_constraint_residuals(angles, n, m))
                jac = np.zeros((n_res, 2 * n * m))
                for k in range(2 * n * m):
                    up = angles.copy()
                    dn = angles.copy()
                    up[k] += eps
                    dn[k] -= eps
                    jac[:, k] = (
                        _constraint_residuals(up, n, m)
                        - _constraint_residuals(dn, n, m)
                    ) / (2 * eps)
                rank = np.linalg.matrix_rank(jac) if n_res else 0
                expected = 2 * n * m - n - m
                if rank != expected:
                    bad.append((n, m, rank, expected))
        elapsed = time.perf_counter() - start
        ok = not bad and elapsed < 10.0
        assert report("2 dof-rank", ok, f"mismatches={bad}, {elapsed:.2f}s")


class TestC3DynamicsOracles:
    def test_flat_surface_velocity_decay(self):
        cfg = SurfaceConfig(1, 1, 100.0, 100.0, 1.0, 1, 1)
        flat = [[CellOrientation(0.0, 0.0)]]
        p = PhysicsParams(friction=0.1, dt=1e-3)
        objs = [ObjectState(10.0, 50.0, vx=1.0)]
        for _ in range(10000):
            objs = step(objs, flat, p, cfg)
        rel = abs(objs[0].vx - math.exp(-1.0)) / math.exp(-1.0)
        assert report("3a velocity-decay", rel < 1e-4, f"rel err {rel:.2e}")

    def test_terminal_speed_on_14_degree_pitch(self):
        pitch = math.atan2(0.5, 2.0)  # 14.04 degrees
        cfg = SurfaceConfig(1, 1, 1e5, 1e5, 1.0, 1, 1)
        p = PhysicsParams(friction=0.1, dt=1e-3)
        gx, gy = gravity_field([[CellOrientation(pitch, 0.0)]], p.gravity)
        x = np.array([cfg.W / 2])
        y = np.array([cfg.L / 2])
        vx = np.zeros(1)
        vy = np.zeros(1)
        advance(x, y, vx, vy, gx, gy, cfg, p.friction, p.dt, 100000, cell_indices(x, y, cfg))
        expect = steady_speed(CellOrientation(pitch, 0.0), p)
        rel = abs(vx[0] - expect) / expect
        assert report("3b terminal-speed", rel < 5e-3, f"rel err {rel:.2e}")

    def test_energy_non_increasing_static_surfaces(self):
        # Steps that cross a cell seam or reflect off a wall are excluded:
        # there the per-cell planar model reassigns the slaved vertical rate
        # discontinuously, which is not integrator error.
        rng = np.random.default_rng(77)
        p = PhysicsParams(friction=0.1, dt=1e-3)
        tol = 100 * p.dt**2
        worst = -np.inf
        for _ in range(100):
            cfg = random_config(rng, 5, 5)
            u = random_feasible_input(rng, cfg)
            g = reconstruct_actuator_grid(u, cfg)
            col = np.asarray(g.col_heights)
            row = np.asarray(g.row_heights)
            gx, gy = gravity_field(orientation_field(u, cfg), p.gravity)
            k = 3
            x = rng.uniform(0, cfg.width, k)
            y = rng.uniform(0, cfg.length, k)
            vx = rng.uniform(-2, 2, k)
            vy = rng.uniform(-2, 2, k)
            e_prev, cell_prev = slaved_energy(x, y, vx, vy, col, row, cfg, p.gravity)
            for _ in range(800):
                xp, yp = x.copy(), y.copy()
                advance(x, y, vx, vy, gx, gy, cfg, p.friction, p.dt, 1, cell_indices(x, y, cfg))
                e_now, cell_now = slaved_energy(x, y, vx, vy, col, row, cfg, p.gravity)
                clean = (
                    (cell_prev[0] == cell_now[0])
                    & (cell_prev[1] == cell_now[1])
                    & (np.abs(x - (xp + vx * p.dt)) < 1e-12)
                    & (np.abs(y - (yp + vy * p.dt)) < 1e-12)
                )
                if clean.any():
                    worst = max(worst, float(np.max((e_now - e_prev)[clean])))
                e_prev, cell_prev = e_now, cell_now
        ok = worst <= tol
        assert report("3c energy-dissipation", ok, f"worst step increase {worst:.2e}")


def _single_track_runs():
    out = {}
    for mode in ("wave", "distributed", "funnel"):
        sc = sio.load_scenario(SCENARIOS / "paper-s1x10.json", mode=mode)
        out[mode] = run(sc)
    return out


class TestC4SingleTrack:
    def test_convergence_ordering(self):
        start = time.perf_counter()
        runs = _single_track_runs()
        times = {mode: m.convergence_time for mode, (_, m) in runs.items()}
        elapsed = time.perf_counter() - start
        ok = (
            all(t is not None for t in times.values())
            and times["wave"] < times["distributed"] < times["funnel"]
            and elapsed < 5.0
        )
        assert report(
            "4a single-track-ordering", ok,
            f"wave={times['wave']:.1f}s distributed={times['distributed']:.1f}s "
            f"funnel={times['funnel']:.1f}s, {elapsed:.2f}s wall",
        )

    def test_wave_steady_speed_plateau(self):
        """The wave drives every object toward the max-slope steady speed
        v_inf = (g/b) Ct Cp |Sp| of a row carrying the full stroke share,
        within 2%.

        Peak speed is the wrong witness for that plateau: under the model's
        own first-order law, reaching 98% of v_inf from rest takes
        v_inf * (ln 50 - 0.98) / b, about 6.8 m of uninterrupted maximum
        slope, and paper-s1x10 gives the lead object 5 m and the sitters
        nearest the reference 1-3 m.  Their peak/v_inf ratios are 0.951 (x7),
        0.887 and 0.667, at 10 Hz and at 100 Hz control alike.  So the test
        checks the plateau the wave drives toward, in two parts:

        - relaxation: every object that has to travel spends at least one
          control period wholly in a row carrying the full share, and over
          each such period the held slope gives
          v1 = v_inf + (v0 - v_inf) e^{-bT}, so the plateau inferred as
          (v1 - v0 e^{-bT}) / (1 - e^{-bT}) must match v_inf;
        - ceiling: no object's speed exceeds v_inf before it arrives.

        A v_inf computed for a 10% smaller share fails both (ratios about
        1.099 and 1.045).
        """
        sc = sio.load_scenario(SCENARIOS / "paper-s1x10.json", mode="wave")
        trace, metrics = run(sc)
        cfg, phys = sc.cfg, sc.physics
        share = sc.params.frac_y * cfg.stroke
        tilt = cell_orientation(0.0, -share, cfg)
        target = phys.gravity / phys.friction * math.cos(
            tilt.pitch
        ) * math.cos(tilt.roll) * abs(math.sin(tilt.roll))
        decay = math.exp(-phys.friction * sc.control_period)
        # actual row drops held over each control period, and each object's row
        drop = trace.row_heights[:, :-1] - trace.row_heights[:, 1:]
        full = np.isclose(np.abs(drop), share, rtol=1e-9, atol=0.0)
        rows = np.minimum((trace.states[:, :, 1] // cfg.L).astype(int), cfg.m - 1)
        ticks = np.arange(len(trace.t) - 1)
        plateaus = []  # one array of inferred plateau/v_inf per object
        peaks = []
        for k, arrival in enumerate(metrics.arrival_times):
            if arrival is None or arrival == 0.0:
                continue  # the object starting in the reference cell
            row = rows[:, k]
            vy = trace.states[:, k, 3]  # every object moves +y, to the far end
            held = (row[:-1] == row[1:]) & full[ticks, row[:-1]]
            v0, v1 = vy[:-1][held], vy[1:][held]
            plateaus.append((v1 - v0 * decay) / (1.0 - decay) / target)
            peaks.append(float(np.max(np.abs(vy[trace.t <= arrival]))) / target)
        pooled = np.concatenate(plateaus) if plateaus else np.empty(0)
        relax_ok = (
            bool(plateaus)
            and all(p.size > 0 for p in plateaus)
            and bool(np.all(np.abs(pooled - 1.0) <= 0.02))
        )
        ceiling_ok = bool(peaks) and all(r <= 1.02 for r in peaks)
        ok = relax_ok and ceiling_ok
        assert report(
            "4b wave-steady-speed-plateau", ok,
            f"held periods per object {[p.size for p in plateaus]}, "
            f"inferred plateau/steady "
            f"{pooled.min() if pooled.size else math.nan:.4f}-"
            f"{pooled.max() if pooled.size else math.nan:.4f}; "
            f"peak/steady ratios {[round(r, 3) for r in peaks]}",
        )


class TestC5HeadlineComparison:
    def test_wave_beats_distributed_beats_funnel(self):
        start = time.perf_counter()
        seeds = list(range(1, 21))
        times = {}
        for mode in ("wave", "distributed", "funnel"):
            base = sio.load_scenario(SCENARIOS / "paper-s5x6.json", mode=mode)
            entries = batch([replace(base, seed=s) for s in seeds])
            errs = [e.error for e in entries if e.error]
            assert not errs, errs
            times[mode] = [e.metrics.convergence_time for e in entries]
            assert all(t is not None for t in times[mode])
        elapsed = time.perf_counter() - start

        ordering = all(
            times["wave"][k] < times["distributed"][k] < times["funnel"][k]
            for k in range(len(seeds))
        )
        medians = {m: statistics.median(ts) for m, ts in times.items()}
        # benchmark medians the canned study is calibrated against, +/- 40%
        targets = {"wave": 70.0, "distributed": 130.0, "funnel": 200.0}
        within = all(
            abs(medians[m] - targets[m]) <= 0.4 * targets[m] for m in targets
        )
        ok = ordering and within and elapsed < 120.0
        assert report(
            "5 headline-comparison", ok,
            f"medians wave={medians['wave']:.1f} "
            f"distributed={medians['distributed']:.1f} "
            f"funnel={medians['funnel']:.1f}, per-seed ordering={ordering}, "
            f"{elapsed:.1f}s wall",
        )


class TestC6FunnelEquivalence:
    def test_distributed_equals_funnel_under_full_occupancy(self):
        cfg = SurfaceConfig(5, 6, 2.0, 2.0, 1.0, 3, 1)
        objects = [
            ObjectState((i - 0.5) * cfg.W, (j - 0.5) * cfg.L)
            for i in range(1, cfg.n + 1)
            for j in range(1, cfg.m + 1)
        ]
        arrays = object_arrays(objects)
        u_dist = command(*arrays, "distributed", ControllerParams(), cfg)[0]
        u_funnel = command(*arrays, "funnel", ControllerParams(), cfg)[0]
        ok = u_dist.dz_col == u_funnel.dz_col and u_dist.dz_row == u_funnel.dz_row
        assert report("6 funnel-equivalence", ok)


def _single_cell_closed_loop(friction, n_states, seed, t_final):
    """Closed loop of the saturated position-velocity feedback law at the
    10 Hz control rate.

    The control law and the cell orientation come from the package, and
    gravity along the cell from the oracle ``gravity_field``; the test only
    owns the (unit-tested elsewhere) semi-implicit substep loop, vectorized
    over independent single-cell plants.
    """
    cfg = SurfaceConfig(1, 1, 2.0, 2.0, 1.0, 1, 1)
    gains = SingleCellGains(kx=cfg.stroke / (2 * cfg.W), ky=cfg.stroke / (2 * cfg.L))
    p = PhysicsParams(friction=friction, dt=1e-3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, cfg.W, n_states)
    y = rng.uniform(0, cfg.L, n_states)
    vx = np.zeros(n_states)
    vy = np.zeros(n_states)
    xr, yr = cfg.W / 2, cfg.L / 2
    substeps = 100
    dt = p.dt
    ticks = int(t_final * 10)
    tail_start = int(0.8 * ticks)
    worst_tail = np.zeros(n_states)
    for tick in range(ticks):
        gx = np.empty(n_states)
        gy = np.empty(n_states)
        for i in range(n_states):
            dz1, dz2, _ = single_cell_feedback(
                x[i] - xr, y[i] - yr, gains, cfg, vx[i], vy[i]
            )
            cell_gx, cell_gy = gravity_field([[cell_orientation(dz1, dz2, cfg)]], p.gravity)
            gx[i], gy[i] = cell_gx[0, 0], cell_gy[0, 0]
        for _ in range(substeps):
            vx += (gx - p.friction * vx) * dt
            vy += (gy - p.friction * vy) * dt
            x += vx * dt
            y += vy * dt
            for pos, vel, hi in ((x, vx, cfg.W), (y, vy, cfg.L)):
                below = pos < 0
                above = pos > hi
                pos[below] = -pos[below]
                vel[below] = -vel[below]
                pos[above] = 2 * hi - pos[above]
                vel[above] = -vel[above]
        if tick >= tail_start:
            np.maximum(worst_tail, np.hypot(x - xr, y - yr), out=worst_tail)
    return worst_tail


class TestC7SingleCellController:
    def test_converges_with_friction(self):
        start = time.perf_counter()
        tail = _single_cell_closed_loop(0.1, 100, 404, 400.0)
        elapsed = time.perf_counter() - start
        threshold = 0.01 * 2.0  # 1% of cell size
        ok = bool(np.all(tail < threshold)) and elapsed < 30.0
        assert report(
            "7a single-cell-friction", ok,
            f"worst tail |e|={tail.max():.2e} m, {elapsed:.1f}s",
        )

    def test_converges_without_friction(self):
        """The zero-friction closed loop must also settle within 1%.

        Without friction the law itself must dissipate: saturated position
        feedback alone yields a marginally stable center (the tilt force is
        curl-free to leading order) that the sampled-and-held control even
        pumps slowly, leaving a tail |e| of about 1.39 m against the 0.02 m
        threshold.  The velocity term SINGLE_CELL_KD * v inside the saturation
        damps it.
        """
        tail = _single_cell_closed_loop(0.0, 20, 405, 120.0)
        threshold = 0.01 * 2.0
        ok = bool(np.all(tail < threshold))
        assert report(
            "7b single-cell-frictionless", ok,
            f"worst tail |e|={tail.max():.2e} m vs {threshold} m",
        )


class TestC8CliContract:
    def test_canned_scenarios_and_determinism(self, tmp_path):
        # s1x10 runs end-to-end and converges
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        s1x10 = str(SCENARIOS / "paper-s1x10.json")
        code1 = main(["run", s1x10, "-o", str(out1)])
        code2 = main(["run", s1x10, "-o", str(out2)])
        same = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

        # u-turn scripted reference schedule
        code3 = main(["run", str(SCENARIOS / "uturn.json"), "-o", str(tmp_path / "u")])

        # validation of a canned scenario's commanded grid
        code4 = main(["validate", s1x10])

        # documented failure exits: invalid input and timeout
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code5 = main(["run", str(bad), "-o", str(tmp_path / "c")])
        doc = json.loads(Path(s1x10).read_text())
        doc["t_max"] = 1.0
        short = tmp_path / "short.json"
        short.write_text(json.dumps(doc))
        code6 = main(["run", str(short), "-o", str(tmp_path / "d")])

        ok = (
            code1 == EXIT_OK
            and code2 == EXIT_OK
            and same
            and code3 == EXIT_OK
            and code4 == EXIT_OK
            and code5 == 1
            and code6 == EXIT_UNSETTLED
        )
        assert report(
            "8 cli-contract", ok,
            f"exits=({code1},{code2},{code3},{code4},{code5},{code6}) "
            f"byte-identical={same}",
        )
