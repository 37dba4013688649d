"""Scenario files, trace/metrics serialization and grid files.

Scenario files are JSON with fixed keys (unknown keys are rejected); units
are SI throughout.  The table ``FIELDS`` places each field of the scenario's
types in the file; the loader and the scenario echoed into metrics files
both follow it, so the echo loads back as the same scenario.  The types
check their own fields (finite numbers; integral counts, cell indices and
seeds: 2.7 and true are refused, not truncated), and the loader reports a
refusal under the field's JSON path.  Traces are CSV with one row per
control tick and every float printed with full round-trip precision, so
identical seeded runs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .control import ControllerParams, SingleCellGains
from .dynamics import ObjectState, PhysicsParams
from .engine import RunMetrics, Scenario, SimTrace
from .surface import FieldError, SurfaceConfig, checked

FLOAT_FMT = "%.17g"  # lossless float64 round-trip
# Trace values write_trace_csv formats at a time (at least one row): a
# slice's floats, formatted as one string, take several times their bytes.
_CSV_FLOATS = 1 << 13
# Most seeds one --seeds listing may give: about 6 CPU-hours per mode on
# paper-s5x6.
MAX_SEEDS = 10**5

# One row per scenario-file field: (JSON path, type, attribute).  A field's
# kind and default are its type's: the type refuses a value of another kind,
# and an absent key keeps the default.  A list's entries are rows in order.
FIELDS = (
    ("surface.n", SurfaceConfig, "n"),
    ("surface.m", SurfaceConfig, "m"),
    ("surface.W", SurfaceConfig, "W"),
    ("surface.L", SurfaceConfig, "L"),
    ("surface.l", SurfaceConfig, "stroke"),
    ("surface.ref[0]", SurfaceConfig, "ref_col"),
    ("surface.ref[1]", SurfaceConfig, "ref_row"),
    ("physics.g", PhysicsParams, "gravity"),
    ("physics.b", PhysicsParams, "friction"),
    ("physics.tau", PhysicsParams, "tau"),
    ("physics.dt", PhysicsParams, "dt"),
    ("control.mode", Scenario, "mode"),
    ("control.a", ControllerParams, "frac_x"),
    ("control.b", ControllerParams, "frac_y"),
    ("control.rate", Scenario, "control_rate"),
    ("control.hardware_split", ControllerParams, "hardware_split"),
    ("control.gains.kx", SingleCellGains, "kx"),
    ("control.gains.ky", SingleCellGains, "ky"),
    ("t_max", Scenario, "t_max"),
    ("seed", Scenario, "seed"),
    ("objects_random.count", Scenario, "random_count"),
)
# The same for each entry of the "objects" list, whose keys are the names.
OBJECT_FIELDS = tuple((key, ObjectState, key) for key in ("x", "y", "vx", "vy"))


class ScenarioError(ValueError):
    """Malformed scenario or grid file."""


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown)}")


def _flatten(node, path: str = "") -> dict:
    """A JSON value as {path: leaf value}, the paths written as in FIELDS."""
    if isinstance(node, dict):
        parts = [(f"{path}.{key}" if path else key, value) for key, value in node.items()]
    elif isinstance(node, list):
        parts = [(f"{path}[{k}]", value) for k, value in enumerate(node)]
    else:
        return {path: node}
    return {p: leaf for sub, value in parts for p, leaf in _flatten(value, sub).items()}


def _build(cls, flat: dict, rows, prefix: str = "", **parts):
    """``cls`` from the values ``flat`` holds for its rows, and ``parts``.  A
    field without a default left out, or a value refused by ``cls`` (which
    may check ``parts`` against each other), raises a ScenarioError naming
    the field's JSON path; no two rows name the same attribute."""
    paths = {attr: prefix + path for path, _, attr in rows}
    own = [attr for _, owner, attr in rows if owner is cls]
    for f in fields(cls):
        if f.name in own and paths[f.name] not in flat and f.default is MISSING:
            raise ScenarioError(f"missing {paths[f.name]}")
    try:
        return cls(**{a: flat[paths[a]] for a in own if paths[a] in flat}, **parts)
    except FieldError as exc:
        raise ScenarioError(f"{paths.get(exc.field, exc.field)} {exc.reason}") from exc


def _dump(rows, owners: dict) -> dict:
    """The rows' fields of ``owners`` ({type: instance, or None to leave its
    rows out}) as a JSON document; a list's rows come in order."""
    doc: dict = {}
    for path, cls, attr in rows:
        if owners[cls] is None:
            continue
        keys = re.findall(r"\w+", path)
        node = doc
        for key, child in zip(keys, keys[1:]):
            node = node.setdefault(key, [] if child.isdigit() else {})
        if isinstance(node, list):
            node.append(getattr(owners[cls], attr))
        else:
            node[keys[-1]] = getattr(owners[cls], attr)
    return doc


def load_scenario(path: str | Path, mode: str | None = None, seed: int | None = None) -> Scenario:
    """Parse a scenario file; mode/seed arguments override the file values."""
    return scenario_from_dict(read_json_object(path), mode=mode, seed=seed)


def read_json_object(path: str | Path) -> dict:
    """The JSON object a scenario or grid file holds; anything else is refused."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: must hold a JSON object")
    return doc


def scenario_from_dict(
    doc: dict, mode: str | None = None, seed: int | None = None
) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if ("objects" in doc) == ("objects_random" in doc):
        raise ScenarioError("a scenario gives either objects or objects_random")
    try:
        listed = doc.get("objects", ())
        flat = _flatten({k: v for k, v in doc.items() if k != "reference_schedule"})
        known = {path for path, _, _ in FIELDS} | {"objects_random.seed"} | {
            f"objects[{k}].{path}" for k in range(len(listed)) for path, _, _ in OBJECT_FIELDS
        }
        _require_keys(flat, known, "scenario")
        if "objects_random.seed" in flat and "seed" in flat:
            placement = checked(flat["objects_random.seed"], "int", "objects_random.seed")
            if flat["seed"] != placement:
                raise ScenarioError(
                    f"seed {flat['seed']} and objects_random.seed {placement} differ"
                )
        flat.update((k, v) for k, v in (("control.mode", mode), ("seed", seed)) if v is not None)
        # The seed is read, and refused, under the key that gave it.
        rows = FIELDS if "seed" in flat else tuple(
            ("objects_random.seed" if attr == "seed" else path, cls, attr)
            for path, cls, attr in FIELDS
        )
        objects = None
        if "objects" in doc:
            objects = tuple(_build(ObjectState, flat, OBJECT_FIELDS, f"objects[{k}].")
                            for k in range(len(listed)))
        gains = None
        if "gains" in doc.get("control", {}):
            gains = _build(SingleCellGains, flat, FIELDS)
        return _build(
            Scenario, flat, rows,
            cfg=_build(SurfaceConfig, flat, FIELDS),
            physics=_build(PhysicsParams, flat, FIELDS),
            params=_build(ControllerParams, flat, FIELDS, gains=gains),
            objects=objects,
            reference_schedule=doc.get("reference_schedule", ()),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def scenario_echo(sc: Scenario) -> dict:
    """JSON-serializable scenario embedded in metrics files; scenario_from_dict
    reads it back as ``sc``."""
    doc = _dump(FIELDS, {
        SurfaceConfig: sc.cfg, PhysicsParams: sc.physics, ControllerParams: sc.params,
        SingleCellGains: sc.params.gains, Scenario: sc,
    })
    if sc.objects is not None:
        del doc["objects_random"]
        doc["objects"] = [_dump(OBJECT_FIELDS, {ObjectState: o}) for o in sc.objects]
    else:
        doc["objects_random"]["seed"] = sc.seed
    if sc.reference_schedule:
        doc["reference_schedule"] = [list(e) for e in sc.reference_schedule]
    return doc


def trace_header(n_objects: int, n: int, m: int) -> Iterator[str]:
    """The column names of a trace CSV, in order, one at a time."""
    yield "t"
    for k in range(1, n_objects + 1):
        yield from (f"obj{k}.x", f"obj{k}.y", f"obj{k}.vx", f"obj{k}.vy")
    yield from (f"dz1[{i}]" for i in range(1, n + 1))
    yield from (f"dz2[{j}]" for j in range(1, m + 1))
    yield from (f"za_i[{i}]" for i in range(1, n + 2))
    yield from (f"za_j[{j}]" for j in range(1, m + 2))


def write_trace_csv(trace: SimTrace, path: str | Path) -> None:
    """The trace's header, one name at a time, then its table, one row per
    tick, in slices of at most _CSV_FLOATS values (one row if a row holds
    more), so no copy of the whole trace is made, however many objects."""
    table = trace.table
    rows, width = table.shape
    line = (FLOAT_FMT + ",") * (width - 1) + FLOAT_FMT + "\n"
    span = max(1, _CSV_FLOATS // width)
    with open(path, "w", newline="") as fh:
        names = trace_header(trace.n_objects, trace.n, trace.m)
        fh.write(next(names))
        fh.writelines("," + name for name in names)
        fh.write("\n")
        for lo in range(0, rows, span):
            part = table[lo : lo + span]
            fh.write(line * len(part) % tuple(part.ravel().tolist()))


def read_trace_csv(path: str | Path) -> SimTrace:
    """Re-load a trace written by write_trace_csv (exact float round-trip),
    its object and grid counts read from the header, which must name at
    least one object.  The rows are parsed straight into the table with no
    comment character, so a row that holds anything but one number per
    column, a ``#`` among them, is refused."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        obj_cols, n, m = (sum(c.startswith(key) for c in header) for key in ("obj", "dz1[", "dz2["))
        if header != list(trace_header(obj_cols // 4, n, m)):
            raise ScenarioError(f"{path}: the header is not a trace header")
        if not obj_cols:
            raise ScenarioError(f"{path}: the header names no object")
        start = fh.tell()  # np.loadtxt only warns on a file with no row
        if not any(line.strip() for line in fh):
            raise ScenarioError(f"{path}: the header is followed by no row")
        fh.seek(start)
        try:  # rows of one other width load, so the reshape fails
            table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            table = table.reshape(len(table), len(header))
        except ValueError as exc:
            raise ScenarioError(f"{path}: a row does not hold one number per column") from exc
    return SimTrace(table, obj_cols // 4, n, m)


def metrics_dict(metrics: RunMetrics, sc: Scenario) -> dict:
    """The RunMetrics fields in order, then the scenario echo."""
    return {**asdict(metrics), "scenario": scenario_echo(sc)}


def write_metrics_json(metrics: RunMetrics, sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(metrics_dict(metrics, sc), indent=2) + "\n")


def parse_seed_list(listing: str) -> list[int]:
    """Parse seed listings like "1..20" or "1,4,9" (ranges are inclusive);
    every seed must be >= 0 and given once, and there may be at most
    MAX_SEEDS, counted from the range bounds before any list is made."""
    ranges: list[range] = []
    try:
        for part in listing.split(","):
            if part.strip():
                lo, hi = part.split("..") if ".." in part else (part, part)
                ranges.append(range(int(lo), int(hi) + 1))
    except ValueError as exc:
        raise ScenarioError(f"--seeds {listing!r}: {exc}") from exc
    count = sum(max(0, r.stop - r.start) for r in ranges)
    if count > MAX_SEEDS:
        raise ScenarioError(f"--seeds {listing!r}: at most {MAX_SEEDS} seeds, got {count}")
    seeds = [s for r in ranges for s in r]
    if not seeds:
        raise ScenarioError(f"--seeds {listing!r}: empty seed list")
    if min(seeds) < 0:
        raise ScenarioError(f"--seeds {listing!r}: seeds must be >= 0, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise ScenarioError(f"--seeds {listing!r}: give each seed once")
    return seeds


def grid_from_dict(doc: dict) -> tuple[np.ndarray, float, float, float]:
    """A raw-heights grid from the object of a grid JSON,
    {"W":..,"L":..,"l":..,"heights":[[..]]}.

    heights is indexed [column][row] with n+1 rows of m+1 entries, each a
    finite number; a refused entry is named as heights[i][j].
    """
    _require_keys(doc, {"W", "L", "l", "heights"}, "grid file")
    try:
        heights = np.array([_finite_row(row, i) for i, row in enumerate(doc["heights"])])
        if heights.ndim != 2 or min(heights.shape) < 2:
            raise ScenarioError("heights must be a 2-D array of at least 2 x 2 values")
        return heights, *(checked(doc[key], "float", key) for key in ("W", "L", "l"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid grid file: {exc}") from exc


def _finite_row(values, i: int) -> list[float]:
    """Row ``i`` of a height matrix; any entry not a finite number is refused."""
    return [checked(v, "float", f"heights[{i}][{j}]") for j, v in enumerate(values)]


def read_heights_csv(path: str | Path) -> np.ndarray:
    """Raw (n+1) x (m+1) height matrix from a headerless CSV, [column][row],
    of finite numbers; a refused entry is named as heights[i][j]."""
    try:
        with open(path) as fh:
            rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
        heights = np.array([_finite_row(row, i) for i, row in enumerate(rows)])
    except FieldError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}: not a numeric CSV ({exc})") from exc
    if heights.ndim != 2 or min(heights.shape) < 2:
        raise ScenarioError(f"{path}: expected a 2-D height matrix of at least 2 x 2 values")
    return heights
