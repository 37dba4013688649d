"""Scenario files, trace/metrics serialization and grid files.

Scenario files are JSON with fixed keys (unknown keys are rejected) and
finite numbers (NaN and infinities are rejected, naming the field); units
are SI throughout.  The scenario echoed into metrics files loads back as the
same scenario.  Traces are CSV with one row per control tick and every
float printed with full round-trip precision, so identical seeded runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .control import ControllerParams, SingleCellGains
from .dynamics import ObjectState, PhysicsParams
from .engine import DEFAULT_CONTROL_RATE, RunMetrics, Scenario, SimTrace
from .surface import SurfaceConfig

FLOAT_FMT = "%.17g"  # lossless float64 round-trip


class ScenarioError(ValueError):
    """Malformed scenario or grid file."""


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown)}")


def _finite(value, field: str) -> float:
    """``value`` as a float; NaN and infinities are refused, naming the field."""
    number = float(value)
    if not math.isfinite(number):
        raise ScenarioError(f"{field} must be a finite number, got {value!r}")
    return number


def load_scenario(path: str | Path, mode: str | None = None, seed: int | None = None) -> Scenario:
    """Parse a scenario file; mode/seed arguments override the file values."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc, mode=mode, seed=seed)


def scenario_from_dict(
    doc: dict, mode: str | None = None, seed: int | None = None
) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _require_keys(
        doc,
        {"surface", "physics", "control", "objects", "objects_random", "t_max",
         "reference_schedule", "seed"},
        "scenario",
    )
    try:
        surface = doc["surface"]
        _require_keys(surface, {"n", "m", "W", "L", "l", "ref"}, "surface")
        ref = surface["ref"]
        cfg = SurfaceConfig(
            n=int(surface["n"]),
            m=int(surface["m"]),
            W=_finite(surface["W"], "surface.W"),
            L=_finite(surface["L"], "surface.L"),
            stroke=_finite(surface["l"], "surface.l"),
            ref_col=int(ref[0]),
            ref_row=int(ref[1]),
        )

        phys = doc.get("physics", {})
        _require_keys(phys, {"g", "b", "tau", "dt"}, "physics")
        physics = PhysicsParams(
            gravity=_finite(phys.get("g", 9.81), "physics.g"),
            friction=_finite(phys.get("b", 0.1), "physics.b"),
            tau=_finite(phys.get("tau", 0.0), "physics.tau"),
            dt=_finite(phys.get("dt", 1e-3), "physics.dt"),
        )

        ctl = doc["control"]
        _require_keys(
            ctl, {"mode", "a", "b", "rate", "gains", "hardware_split"}, "control"
        )
        file_mode = str(ctl["mode"])
        a = _finite(ctl.get("a", 0.5), "control.a")
        b = _finite(ctl.get("b", 0.5), "control.b")
        if abs(a + b - 1.0) > 1e-9:
            raise ScenarioError(
                f"control fractions must satisfy a + b = 1, got a={a} b={b}"
            )
        gains = None
        if "gains" in ctl:
            g = ctl["gains"]
            _require_keys(g, {"kx", "ky", "sat_x", "sat_y"}, "control.gains")
            sat = {
                k: _finite(g[k], f"control.gains.{k}") if g.get(k) is not None else None
                for k in ("sat_x", "sat_y")
            }
            gains = SingleCellGains(
                kx=_finite(g["kx"], "control.gains.kx"),
                ky=_finite(g["ky"], "control.gains.ky"),
                **sat,
            )
        params = ControllerParams(
            frac_x=a,
            frac_y=b,
            gains=gains,
            hardware_split=bool(ctl.get("hardware_split", False)),
        )
        rate = _finite(ctl.get("rate", DEFAULT_CONTROL_RATE), "control.rate")

        objects = None
        random_count = 0
        file_seed = int(doc.get("seed", 0))
        if "objects" in doc and "objects_random" in doc:
            raise ScenarioError("give either objects or objects_random, not both")
        if "objects" in doc:
            objects = []
            for k, o in enumerate(doc["objects"]):
                _require_keys(o, {"x", "y", "vx", "vy", "mass"}, f"objects[{k}]")
                objects.append(
                    ObjectState(
                        x=_finite(o["x"], f"objects[{k}].x"),
                        y=_finite(o["y"], f"objects[{k}].y"),
                        vx=_finite(o.get("vx", 0.0), f"objects[{k}].vx"),
                        vy=_finite(o.get("vy", 0.0), f"objects[{k}].vy"),
                        mass=_finite(o.get("mass", 1.0), f"objects[{k}].mass"),
                    )
                )
            objects = tuple(objects)
        elif "objects_random" in doc:
            r = doc["objects_random"]
            _require_keys(r, {"count", "seed"}, "objects_random")
            random_count = int(r["count"])
            if "seed" in r:
                placement_seed = int(r["seed"])
                if "seed" in doc and placement_seed != file_seed:
                    raise ScenarioError(
                        f"seed {file_seed} and objects_random.seed {placement_seed} differ"
                    )
                file_seed = placement_seed
        else:
            raise ScenarioError("scenario needs objects or objects_random")

        schedule = []
        for k, entry in enumerate(doc.get("reference_schedule", [])):
            if len(entry) != 3:
                raise ScenarioError(
                    f"reference_schedule[{k}] must be [time, column, row]"
                )
            when, col, row = (
                _finite(v, f"reference_schedule[{k}] {part}")
                for v, part in zip(entry, ("time", "column", "row"))
            )
            schedule.append((when, int(col), int(row)))
        schedule.sort(key=lambda e: e[0])

        return Scenario(
            cfg=cfg,
            physics=physics,
            mode=mode if mode is not None else file_mode,
            params=params,
            objects=objects,
            random_count=random_count,
            control_rate=rate,
            t_max=_finite(doc.get("t_max", 300.0), "t_max"),
            seed=seed if seed is not None else file_seed,
            reference_schedule=tuple(schedule),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def scenario_echo(sc: Scenario) -> dict:
    """JSON-serializable scenario embedded in metrics files; scenario_from_dict
    reads it back as ``sc`` (``settle_speed``, which files do not set, aside)."""
    doc = {
        "surface": {
            "n": sc.cfg.n, "m": sc.cfg.m, "W": sc.cfg.W, "L": sc.cfg.L,
            "l": sc.cfg.stroke, "ref": [sc.cfg.ref_col, sc.cfg.ref_row],
        },
        "physics": {
            "g": sc.physics.gravity, "b": sc.physics.friction,
            "tau": sc.physics.tau, "dt": sc.physics.dt,
        },
        "control": {
            "mode": sc.mode, "a": sc.params.frac_x, "b": sc.params.frac_y,
            "rate": sc.control_rate, "hardware_split": sc.params.hardware_split,
        },
        "t_max": sc.t_max,
        "seed": sc.seed,
    }
    if sc.params.gains is not None:
        doc["control"]["gains"] = asdict(sc.params.gains)
    if sc.objects is not None:
        doc["objects"] = [asdict(o) for o in sc.objects]
    else:
        doc["objects_random"] = {"count": sc.random_count, "seed": sc.seed}
    if sc.reference_schedule:
        doc["reference_schedule"] = [list(e) for e in sc.reference_schedule]
    return doc


def trace_header(n_objects: int, n: int, m: int) -> list[str]:
    cols = ["t"]
    for k in range(1, n_objects + 1):
        cols += [f"obj{k}.x", f"obj{k}.y", f"obj{k}.vx", f"obj{k}.vy"]
    cols += [f"dz1[{i}]" for i in range(1, n + 1)]
    cols += [f"dz2[{j}]" for j in range(1, m + 1)]
    cols += [f"za_i[{i}]" for i in range(1, n + 2)]
    cols += [f"za_j[{j}]" for j in range(1, m + 2)]
    return cols


def write_trace_csv(trace: SimTrace, path: str | Path) -> None:
    n = trace.dz_col.shape[1]
    m = trace.dz_row.shape[1]
    rows = len(trace.t)
    header = trace_header(trace.n_objects, n, m)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in range(rows):
            vals = [trace.t[r]]
            vals.extend(trace.states[r].reshape(-1))
            vals.extend(trace.dz_col[r])
            vals.extend(trace.dz_row[r])
            vals.extend(trace.col_heights[r])
            vals.extend(trace.row_heights[r])
            fh.write(",".join(FLOAT_FMT % v for v in vals) + "\n")


def read_trace_csv(path: str | Path, n: int, m: int) -> SimTrace:
    """Re-load a trace written by write_trace_csv (exact float round-trip)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.array(
            [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        )
    n_obj = (len(header) - 1 - (n + m) - (n + 1 + m + 1)) // 4
    if len(header) != 1 + 4 * n_obj + n + m + n + 1 + m + 1:
        raise ScenarioError(f"{path}: column count does not match n={n}, m={m}")
    t = data[:, 0]
    pos = 1
    states = data[:, pos : pos + 4 * n_obj].reshape(len(t), n_obj, 4)
    pos += 4 * n_obj
    dz_col = data[:, pos : pos + n]
    pos += n
    dz_row = data[:, pos : pos + m]
    pos += m
    col_heights = data[:, pos : pos + n + 1]
    pos += n + 1
    row_heights = data[:, pos : pos + m + 1]
    return SimTrace(
        t=t,
        states=states,
        dz_col=dz_col,
        dz_row=dz_row,
        col_heights=col_heights,
        row_heights=row_heights,
        masses=np.ones(n_obj),
    )


def metrics_dict(metrics: RunMetrics, sc: Scenario) -> dict:
    return {
        "convergence_time": metrics.convergence_time,
        "converged": metrics.converged,
        "arrival_times": metrics.arrival_times,
        "path_lengths": metrics.path_lengths,
        "wall_clock": metrics.wall_clock,
        "scenario": scenario_echo(sc),
    }


def write_metrics_json(metrics: RunMetrics, sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(metrics_dict(metrics, sc), indent=2) + "\n")


def parse_seed_list(listing: str) -> list[int]:
    """Parse seed listings like "1..20" or "1,4,9" (ranges are inclusive)."""
    seeds: list[int] = []
    for part in listing.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ScenarioError(f"empty seed list {listing!r}")
    return seeds


def load_grid_file(path: str | Path) -> tuple[np.ndarray, float, float, float]:
    """Load a raw-heights grid JSON: {"W":..,"L":..,"l":..,"heights":[[..]]}.

    heights is indexed [column][row] with n+1 rows of m+1 entries.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    _require_keys(doc, {"W", "L", "l", "heights"}, "grid file")
    try:
        heights = np.array(doc["heights"], dtype=float)
        if heights.ndim != 2:
            raise ScenarioError("heights must be a 2-D array")
        return heights, float(doc["W"]), float(doc["L"]), float(doc["l"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid grid file: {exc}") from exc


def read_heights_csv(path: str | Path) -> np.ndarray:
    """Raw (n+1) x (m+1) height matrix from a headerless CSV, [column][row]."""
    try:
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(v) for v in line.split(",")])
        heights = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ScenarioError(f"{path}: not a numeric CSV ({exc})") from exc
    if heights.ndim != 2 or heights.size == 0:
        raise ScenarioError(f"{path}: expected a 2-D height matrix")
    return heights
