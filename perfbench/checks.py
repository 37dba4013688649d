"""Output checks computed apart from the program.

Everything here is recomputed from the documented meaning of the outputs
(README "Outputs", the module docstrings of morphsurf.surface and
morphsurf.dynamics) with the benchmark's own code; nothing calls morphsurf.
Each check returns failure messages that start with its tag, so the
self-test can tell which check rejected a corrupted output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEIGHT_TOL = 1e-9  # m; actuator heights within [0, l]
LEVEL_TOL = 1e-12  # m; the reference cell's four corners at one height
STATE_TOL = 1e-9  # m and m/s; re-integrated period against the next trace row
PATH_RTOL = 1e-9  # relative; path length summed here against metrics.json
REINTEGRATED_PERIODS = 16  # control periods re-integrated per run


@dataclass(frozen=True)
class Scene:
    """The parts of a scenario file the checks need."""

    n: int
    m: int
    W: float
    L: float
    stroke: float
    g: float
    b: float
    dt: float
    rate: float
    ref: tuple[int, int]
    schedule: tuple[tuple[float, int, int], ...]

    @classmethod
    def from_doc(cls, doc: dict) -> Scene:
        s, p, c = doc["surface"], doc["physics"], doc["control"]
        return cls(
            n=s["n"], m=s["m"], W=s["W"], L=s["L"], stroke=s["l"],
            g=p["g"], b=p["b"], dt=p["dt"], rate=c["rate"],
            ref=(s["ref"][0], s["ref"][1]),
            schedule=tuple(sorted(tuple(e) for e in doc.get("reference_schedule", []))),
        )

    @property
    def period(self) -> float:
        return 1.0 / self.rate

    @property
    def substeps(self) -> int:
        return round(self.period / self.dt)

    def ref_at(self, t: float) -> tuple[int, int]:
        ref = self.ref
        for when, col, row in self.schedule:
            if t >= when - 1e-12:
                ref = (col, row)
        return ref

    @property
    def final_ref(self) -> tuple[int, int]:
        return self.ref_at(math.inf)


@dataclass
class Trace:
    """One row per control tick: states (rows, objects, [x, y, vx, vy]) and
    the actual actuator height components za_i/za_j."""

    t: np.ndarray
    states: np.ndarray
    za_i: np.ndarray
    za_j: np.ndarray

    @classmethod
    def from_sim(cls, tr) -> Trace:
        return cls(tr.t, tr.states, tr.col_heights, tr.row_heights)

    @classmethod
    def from_csv(cls, path: Path, n: int, m: int) -> Trace:
        """Parse trace.csv by its column names."""
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        col = {name: k for k, name in enumerate(header)}
        k_obj = (len(header) - 1 - 2 * (n + m) - 2) // 4
        pick = lambda names: data[:, [col[c] for c in names]]  # noqa: E731
        states = np.stack(
            [pick([f"obj{k}.{f}" for k in range(1, k_obj + 1)]) for f in ("x", "y", "vx", "vy")],
            axis=2,
        )
        return cls(
            t=data[:, col["t"]],
            states=states,
            za_i=pick([f"za_i[{i}]" for i in range(1, n + 2)]),
            za_j=pick([f"za_j[{j}]" for j in range(1, m + 2)]),
        )

    @property
    def ticks(self) -> int:
        """Dynamics ticks simulated: every row but the last is followed by one."""
        return len(self.t) - 1


def read_metrics(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def cells(x: np.ndarray, y: np.ndarray, sc: Scene) -> tuple[np.ndarray, np.ndarray]:
    """1-based cell of each position; a boundary belongs to the higher cell,
    the far walls to the last cell."""
    col = np.minimum(np.floor(x / sc.W).astype(int), sc.n - 1) + 1
    row = np.minimum(np.floor(y / sc.L).astype(int), sc.m - 1) + 1
    return col, row


def arrivals(tr: Trace, sc: Scene) -> list[float | None]:
    """Per object: the earliest trace time after which it stays in the final
    reference cell to the end of the trace (None if it is outside at the end)."""
    col, row = cells(tr.states[:, :, 0], tr.states[:, :, 1], sc)
    inside = (col == sc.final_ref[0]) & (row == sc.final_ref[1])
    out = []
    for k in range(tr.states.shape[1]):
        outside = np.flatnonzero(~inside[:, k])
        if outside.size == 0:
            out.append(0.0)
        elif outside[-1] == len(tr.t) - 1:
            out.append(None)
        else:
            out.append(float(tr.t[outside[-1] + 1]))
    return out


def convergence(arr: list[float | None], tr: Trace, sc: Scene) -> float | None:
    """Latest arrival, if every object arrived and stayed a full control period."""
    if any(a is None for a in arr):
        return None
    worst = max(arr)
    return worst if tr.t[-1] - worst >= sc.period - 1e-12 else None


def path_lengths(tr: Trace) -> list[float]:
    steps = np.diff(tr.states[:, :, :2], axis=0)
    return [math.fsum(col) for col in np.hypot(steps[:, :, 0], steps[:, :, 1]).T]


def check_metrics(tr: Trace, sc: Scene, metrics: dict) -> list[str]:
    """metrics.json against arrivals, convergence and paths recomputed here."""
    fails = []
    arr = arrivals(tr, sc)
    theirs = metrics["arrival_times"]
    bad = [k for k in range(len(arr)) if k >= len(theirs) or arr[k] != theirs[k]]
    if bad or len(arr) != len(theirs):
        k = bad[0] if bad else len(arr)
        fails.append(f"arrival: object {k + 1} arrives at {arr[k] if bad else None} "
                     f"in the trace, {theirs[k] if k < len(theirs) else None} in metrics")
    conv = convergence(arr, tr, sc)
    if conv != metrics["convergence_time"]:
        fails.append(f"convergence: trace gives {conv}, metrics {metrics['convergence_time']}")
    for k, (mine, theirs) in enumerate(zip(path_lengths(tr), metrics["path_lengths"])):
        if abs(mine - theirs) > PATH_RTOL * max(1.0, mine):
            fails.append(f"path: object {k + 1} trace path {mine} vs metrics {theirs}")
            break
    return fails


def check_invariants(tr: Trace, sc: Scene) -> list[str]:
    """Heights in [0, l], reference cell level, positions in the workspace."""
    fails = []
    h = tr.za_i[:, :, None] + tr.za_j[:, None, :]
    if h.min() < -HEIGHT_TOL or h.max() > sc.stroke + HEIGHT_TOL:
        r = int(np.flatnonzero((h < -HEIGHT_TOL).any(axis=(1, 2))
                               | (h > sc.stroke + HEIGHT_TOL).any(axis=(1, 2)))[0])
        fails.append(f"height: row {r} has actuator heights in "
                     f"[{h[r].min()}, {h[r].max()}], stroke {sc.stroke}")
    for r, t in enumerate(tr.t):
        c, w = sc.ref_at(t)
        if (abs(tr.za_i[r, c - 1] - tr.za_i[r, c]) > LEVEL_TOL
                or abs(tr.za_j[r, w - 1] - tr.za_j[r, w]) > LEVEL_TOL):
            fails.append(f"level: reference cell ({c},{w}) tilted at t={t}")
            break
    x, y = tr.states[:, :, 0], tr.states[:, :, 1]
    outside = (x < 0) | (x > sc.n * sc.W) | (y < 0) | (y > sc.m * sc.L)
    if outside.any():
        r, k = map(int, np.argwhere(outside)[0])
        fails.append(f"workspace: object {k + 1} at ({x[r, k]}, {y[r, k]}), t={tr.t[r]}")
    return fails


def _reflect(p: float, v: float, hi: float) -> tuple[float, float]:
    while p < 0.0 or p > hi:
        p, v = (-p, -v) if p < 0.0 else (2.0 * hi - p, -v)
    return p, v


def integrate_period(state: np.ndarray, za_i: np.ndarray, za_j: np.ndarray,
                     sc: Scene) -> list[tuple[float, float, float, float]]:
    """One control period of the docstring's equations, object by object:
    ax = g cos(pitch) cos(roll)^2 sin(pitch) - b vx,
    ay = -g cos(pitch) cos(roll) sin(roll) - b vy, semi-implicit Euler,
    elastic walls, on the cell orientation of the held actual grid."""
    out = []
    for x, y, vx, vy in state.tolist():
        for _ in range(sc.substeps):
            i = min(int(x / sc.W), sc.n - 1)
            j = min(int(y / sc.L), sc.m - 1)
            pitch = math.atan2(za_i[i] - za_i[i + 1], sc.W)
            roll = math.atan2(-math.cos(pitch) * (za_j[j] - za_j[j + 1]), sc.L)
            ax = sc.g * math.cos(pitch) * math.cos(roll) ** 2 * math.sin(pitch) - sc.b * vx
            ay = -sc.g * math.cos(pitch) * math.cos(roll) * math.sin(roll) - sc.b * vy
            vx += ax * sc.dt
            vy += ay * sc.dt
            x += vx * sc.dt
            y += vy * sc.dt
            x, vx = _reflect(x, vx, sc.n * sc.W)
            y, vy = _reflect(y, vy, sc.m * sc.L)
        out.append((x, y, vx, vy))
    return out


def sampled_periods(tr: Trace) -> list[int]:
    last = tr.ticks - 1
    if last < 0:
        return []
    k = min(REINTEGRATED_PERIODS, last + 1)
    return sorted({round(i * last / max(k - 1, 1)) for i in range(k)})


def check_reintegration(tr: Trace, sc: Scene) -> list[str]:
    """Trace row k and row k's grid, integrated one period, must give row k+1."""
    for r in sampled_periods(tr):
        got = np.array(integrate_period(tr.states[r], tr.za_i[r], tr.za_j[r], sc))
        err = np.abs(got - tr.states[r + 1])
        if err.max() > STATE_TOL:
            k = int(np.argmax(err.max(axis=1)))
            return [f"reintegrate: period from t={tr.t[r]} object {k + 1} misses row "
                    f"{r + 1} by {err.max():.3g} (tolerance {STATE_TOL})"]
    return []


def check_path_bound(tr: Trace, sc: Scene, metrics: dict) -> list[str]:
    """No path is shorter than the straight line to the reference cell."""
    c, w = sc.final_ref
    x0, y0 = tr.states[0, :, 0], tr.states[0, :, 1]
    dx = np.maximum.reduce([(c - 1) * sc.W - x0, x0 - c * sc.W, np.zeros_like(x0)])
    dy = np.maximum.reduce([(w - 1) * sc.L - y0, y0 - w * sc.L, np.zeros_like(y0)])
    dist = np.hypot(dx, dy)
    short = [k for k, p in enumerate(metrics["path_lengths"]) if p < dist[k] - 1e-12]
    if short:
        k = short[0]
        return [f"distance: object {k + 1} path {metrics['path_lengths'][k]} "
                f"< distance {dist[k]} to the reference cell"]
    return []


def check_converged(metrics: dict) -> list[str]:
    if metrics["converged"] is not True or metrics["convergence_time"] is None:
        return [f"converged: run did not converge ({metrics['converged']}, "
                f"{metrics['convergence_time']})"]
    return []


def check_run(label: str, tr: Trace, sc: Scene, metrics: dict) -> list[str]:
    """Every per-run check on one run's trace and metrics."""
    fails = (check_converged(metrics) + check_metrics(tr, sc, metrics)
             + check_invariants(tr, sc) + check_reintegration(tr, sc)
             + check_path_bound(tr, sc, metrics))
    return [f"{label}: {f}" for f in fails]


def check_ranking(label: str, conv: dict[str, float | None]) -> list[str]:
    """Convergence times rank wave < distributed < funnel."""
    w, d, f = conv.get("wave"), conv.get("distributed"), conv.get("funnel")
    if None in (w, d, f) or not w < d < f:
        return [f"{label}: ranking: wave {w}, distributed {d}, funnel {f}"]
    return []


def check_identical(label: str, outputs: list) -> list[str]:
    """Reruns of the same scenarios write the same bytes."""
    differing = sum(o != outputs[0] for o in outputs[1:])
    if differing:
        return [f"{label}: identical: {differing} of {len(outputs) - 1} reruns "
                "wrote other outputs than the first"]
    return []


def strip_wall_clock(doc):
    """A metrics document without its wall_clock fields, as canonical JSON."""
    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k != "wall_clock"}
        if isinstance(o, list):
            return [strip(v) for v in o]
        return o
    return json.dumps(strip(doc), sort_keys=True)
