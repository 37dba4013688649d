"""Run orchestration: control ticks, dynamics substeps, traces and metrics.

A run alternates controller updates at the control rate with dynamics
substeps at the physics step.  Commanded actuator heights pass through the
first-order actuator response once per tick (exact over the control period),
and the orientation field derived from the *actual* grid is held for the
tick.  Everything is deterministic given the scenario seed.
"""

from __future__ import annotations

import bisect
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import control
from .control import ControllerParams
from .dynamics import ObjectState, PhysicsParams, advance, cell_index, first_order_lag
from .surface import FieldError, SurfaceConfig, check_fields, checked

DEFAULT_CONTROL_RATE = 10.0  # Hz
SETTLE_SPEED = 1e-3  # m/s; "at rest" threshold for the stop rule
# single_cell mode's reference cell is the whole surface, and a slow swing
# is at rest at its turning points: there the stop rule also needs the first
# object this close to the cell centre, as a fraction of the cell size.
SINGLE_CELL_SETTLE = 0.01

THREADS_ENV = "MORPHSURF_THREADS"

# Bytes of trace a run reserves before it first has to grow it.  Pages of
# the rows a run never reaches are never touched, so never resident.
_TRACE_RESERVE = 1 << 28

# Trace rows the metrics read at a time; their temporaries are a few arrays
# of this many rows, however long the trace.
_METRIC_ROWS = 1024

_SCHEDULE_KINDS = (("float", "time"), ("int", "column"), ("int", "row"))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one run; the reference schedule is
    kept sorted by time."""

    cfg: SurfaceConfig
    physics: PhysicsParams
    mode: str
    params: ControllerParams = field(default_factory=ControllerParams)
    objects: tuple[ObjectState, ...] | None = None  # explicit initial states
    random_count: int = 0  # used when objects is None
    control_rate: float = DEFAULT_CONTROL_RATE
    t_max: float = 300.0
    seed: int = 0
    reference_schedule: tuple[tuple[float, int, int], ...] = ()

    def __post_init__(self):
        check_fields(self)
        if not (self.control_rate > 0 and self.t_max > 0):
            raise ValueError("control_rate and t_max must be positive")
        if self.seed < 0:
            raise FieldError("seed", f"must be >= 0, got {self.seed}")
        if self.mode not in control.MODES:
            raise ValueError(f"unknown controller mode {self.mode!r}")
        cfg = self.cfg
        if self.mode == "single_cell":
            if (cfg.n, cfg.m) != (1, 1):
                raise FieldError("mode", f"single_cell needs a 1x1 surface, got {cfg.n}x{cfg.m}")
            if self.params.gains is not None:
                self.params.gains.validate(cfg)
        count = len(self.objects) if self.objects is not None else self.random_count
        if count < 1:
            raise ValueError("scenario needs at least one object, explicit or random")
        for k, o in enumerate(self.objects or ()):
            if not (0.0 <= o.x <= cfg.width and 0.0 <= o.y <= cfg.length):
                raise ValueError(
                    f"objects[{k}] at ({o.x}, {o.y}) lies outside the workspace "
                    f"[0, {cfg.width}] x [0, {cfg.length}]"
                )
        schedule = []
        for k, entry in enumerate(self.reference_schedule):
            when, col, row = (
                checked(value, kind, f"reference_schedule[{k}] {part}")
                for value, (kind, part) in zip(entry, _SCHEDULE_KINDS, strict=True)
            )
            if not (when >= 0.0 and 1 <= col <= cfg.n and 1 <= row <= cfg.m):
                raise ValueError(
                    f"reference_schedule entry [{when}, {col}, {row}] needs a time "
                    f">= 0 and a cell of the {cfg.n}x{cfg.m} grid"
                )
            schedule.append((when, col, row))
        schedule.sort(key=lambda entry: entry[0])
        object.__setattr__(self, "reference_schedule", tuple(schedule))
        period, substeps = self.control_period, self.substeps
        if substeps < 1 or abs(substeps * self.physics.dt - period) > 1e-6 * period:
            raise ValueError(
                f"physics step {self.physics.dt} does not divide the control "
                f"period {period}"
            )

    @property
    def control_period(self) -> float:
        return 1.0 / self.control_rate

    @property
    def substeps(self) -> int:
        return round(self.control_period / self.physics.dt)


@dataclass
class SimTrace:
    """Tick-cadence record of one run.

    states has shape (rows, objects, 4) storing x, y, vx, vy.  dz_col/dz_row
    are the commanded height differences active from each row's time until
    the next row; col/row_heights are the actual (post-response) grid.  A run
    returns each field as the slice of the written rows of the arrays it
    reserved up front and filled in place, one row per tick.
    """

    t: np.ndarray
    states: np.ndarray
    dz_col: np.ndarray
    dz_row: np.ndarray
    col_heights: np.ndarray
    row_heights: np.ndarray

    @property
    def n_objects(self) -> int:
        return self.states.shape[1]


@dataclass
class RunMetrics:
    """Outcome of one run.

    convergence_time is trace-based: the earliest time after which every
    object stays inside the reference cell through the end of the trace
    (None if containment never holds for a settle window).  converged
    reports whether the run stopped on the settle rule before t_max.
    """

    convergence_time: float | None
    converged: bool
    arrival_times: list[float | None]
    path_lengths: list[float]
    wall_clock: float


def initial_state(sc: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Initial (x, y, vx, vy) arrays: the explicit objects, or seeded uniform
    placement at rest over the workspace."""
    if sc.objects is not None:
        return tuple(
            np.array([getattr(o, k) for o in sc.objects], dtype=float)
            for k in ("x", "y", "vx", "vy")
        )
    rng = np.random.default_rng(sc.seed)
    xs = rng.uniform(0.0, sc.cfg.width, sc.random_count)
    ys = rng.uniform(0.0, sc.cfg.length, sc.random_count)
    return xs, ys, np.zeros(sc.random_count), np.zeros(sc.random_count)


def _grid_orientation_terms(
    grid_col: np.ndarray, grid_row: np.ndarray, cfg: SurfaceConfig, gravity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell gravity acceleration components (n, m) for the substep kernel.

    Cell (i, j) has pitch atan2(dz_col[i], W), shared by its column, and
    roll atan2(-cos(pitch) * dz_row[j], L) (surface.cell_orientation);
    gx = g Ct Cp^2 St and gy = -g Ct Cp Sp as in the dynamics docstring.
    Scalar math keeps every value bit-identical to that per-cell formula:
    numpy's vectorised arctan2 rounds differently on some inputs.
    """
    W, L = cfg.W, cfg.L
    dz_row = (grid_row[:-1] - grid_row[1:]).tolist()
    gx: list[float] = []
    gy: list[float] = []
    for dz1 in (grid_col[:-1] - grid_col[1:]).tolist():
        pitch = math.atan2(dz1, W)
        ct, st = math.cos(pitch), math.sin(pitch)
        g_ct, neg_g_ct = gravity * ct, -gravity * ct
        for dz2 in dz_row:
            roll = math.atan2(-ct * dz2, L)
            cp = math.cos(roll)
            gx.append(g_ct * cp * cp * st)
            gy.append(neg_g_ct * cp * math.sin(roll))
    shape = (cfg.n, cfg.m)
    return np.array(gx).reshape(shape), np.array(gy).reshape(shape)


def run(sc: Scenario) -> tuple[SimTrace, RunMetrics]:
    """Simulate one scenario until the settle rule holds or t_max is reached."""
    start = time.perf_counter()
    cfg = sc.cfg
    p = sc.physics
    period = sc.control_period
    substeps = sc.substeps
    n_ticks = int(round(sc.t_max / period))

    x, y, vx, vy = initial_state(sc)
    # The reference surface configs, built once, and the time each holds from.
    ref_times = [-math.inf] + [when - 1e-12 for when, _, _ in sc.reference_schedule]
    ref_cfgs = [cfg] + [replace(cfg, ref_col=c, ref_row=r) for _, c, r in sc.reference_schedule]
    centred = sc.mode == "single_cell"

    grid_col = np.zeros(cfg.n + 1)  # actual (post-response) heights
    grid_row = np.zeros(cfg.m + 1)
    # One SimTrace row per tick, in field order, written in place into arrays
    # reserved up front; a run that outgrows them doubles them.
    row_shapes = ((), (x.size, 4), (cfg.n,), (cfg.m,), (cfg.n + 1,), (cfg.m + 1,))
    row_bytes = 8 * sum(math.prod(shape) for shape in row_shapes)
    capacity = min(n_ticks + 1, max(1, _TRACE_RESERVE // row_bytes))
    columns = [np.empty((capacity, *shape)) for shape in row_shapes]
    t_col, states, dz_col, dz_row, col_heights, row_heights = columns
    settle_streak = 0
    converged = False

    for tick in range(n_ticks + 1):
        t = tick * period
        ref_cfg = ref_cfgs[bisect.bisect_right(ref_times, t) - 1]

        # Stop once containment + rest has held for one full control period.
        if _settled(x, y, vx, vy, ref_cfg, centred):
            settle_streak += 1
        else:
            settle_streak = 0

        u, commanded = control.command(x, y, vx, vy, sc.mode, sc.params, ref_cfg)
        grid_col = first_order_lag(grid_col, np.asarray(commanded.col_heights), p.tau, period)
        grid_row = first_order_lag(grid_row, np.asarray(commanded.row_heights), p.tau, period)

        if tick == capacity:
            capacity = min(2 * capacity, n_ticks + 1)
            grown = [np.empty((capacity, *column.shape[1:])) for column in columns]
            for new, old in zip(grown, columns):
                new[:tick] = old
            columns = grown
            t_col, states, dz_col, dz_row, col_heights, row_heights = columns
        t_col[tick] = t
        row = states[tick]
        row[:, 0] = x
        row[:, 1] = y
        row[:, 2] = vx
        row[:, 3] = vy
        dz_col[tick] = u.dz_col
        dz_row[tick] = u.dz_row
        col_heights[tick] = grid_col
        row_heights[tick] = grid_row

        if settle_streak >= 2:
            converged = True
            break
        if tick == n_ticks:
            break

        gx, gy = _grid_orientation_terms(grid_col, grid_row, cfg, p.gravity)
        advance(x, y, vx, vy, gx, gy, cfg, p.friction, p.dt, substeps)

    trace = SimTrace(*(column[: tick + 1] for column in columns))
    metrics = compute_metrics(
        trace,
        ref_cfgs[-1],
        settle=period,
        converged=converged,
        wall_clock=time.perf_counter() - start,
    )
    return trace, metrics


def _settled(
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    cfg: SurfaceConfig,
    centred: bool,
) -> bool:
    """Every object in the reference cell and at rest; with ``centred``
    (single_cell mode) the first object also within SINGLE_CELL_SETTLE of
    the cell centre."""
    if (vx * vx + vy * vy > SETTLE_SPEED * SETTLE_SPEED).any():
        return False
    if centred and not (
        abs(x[0] - (cfg.ref_col - 0.5) * cfg.W) <= SINGLE_CELL_SETTLE * cfg.W
        and abs(y[0] - (cfg.ref_row - 0.5) * cfg.L) <= SINGLE_CELL_SETTLE * cfg.L
    ):
        return False
    return bool(_contained(x, y, cfg).all())


def _contained(x: np.ndarray, y: np.ndarray, cfg: SurfaceConfig) -> np.ndarray:
    """Whether each position lies in the reference cell; each axis is reduced
    to bools before the other's cell indices are made."""
    inside = cell_index(x, cfg.W, cfg.n - 1) == cfg.ref_col - 1
    inside &= cell_index(y, cfg.L, cfg.m - 1) == cfg.ref_row - 1
    return inside


def convergence_time(
    trace: SimTrace, cfg: SurfaceConfig, settle: float
) -> float | None:
    """Earliest time after which every object stays in the reference cell.

    Containment must persist from that time to the end of the trace and
    cover at least the settle window; otherwise None.  Containment is
    checked at the trace cadence.
    """
    return _latest_arrival(arrival_times(trace, cfg), trace, settle)


def _latest_arrival(arrivals: list, trace: SimTrace, settle: float) -> float | None:
    """convergence_time from the objects' arrival times."""
    if any(a is None for a in arrivals):
        return None
    worst = max(arrivals)  # type: ignore[type-var]
    if trace.t[-1] - worst < settle - 1e-12:
        return None
    return float(worst)


def arrival_times(trace: SimTrace, cfg: SurfaceConfig) -> list[float | None]:
    """Per-object earliest time after which it never leaves the reference cell.

    Each object's last row outside the cell is looked for in blocks of
    _METRIC_ROWS rows from the end of the trace back, until every object
    has one or the trace is read.
    """
    states = trace.states
    rows, objects = states.shape[:2]
    last_out = np.full(objects, -1)
    for hi in range(rows, 0, -_METRIC_ROWS):
        block = states[max(0, hi - _METRIC_ROWS) : hi]
        outside = ~_contained(block[:, :, 0], block[:, :, 1], cfg)
        found = outside.any(axis=0) & (last_out < 0)
        last_out[found] = hi - 1 - outside[::-1].argmax(axis=0)[found]
        if (last_out >= 0).all():
            break
    out: list[float | None] = []
    for k in last_out.tolist():
        if k < 0:
            out.append(0.0)
        elif k == rows - 1:
            out.append(None)
        else:
            out.append(float(trace.t[k + 1]))
    return out


def _path_lengths(trace: SimTrace) -> np.ndarray:
    """Per-object sum of the straight steps between trace rows.

    The arithmetic and summation order of
    sqrt((diff(states[:, :, :2], axis=0)**2).sum(axis=2)).sum(axis=0), read
    in blocks of _METRIC_ROWS rows.  numpy adds the rows of a (steps,
    objects) array one after another, so each block's steps are summed
    under the running total, which heads the array.  One object's steps form
    a 1-D array, which numpy sums pairwise instead (_pairwise_steps).
    """
    states = trace.states
    rows, objects = states.shape[:2]
    total = np.zeros(objects)
    if rows < 2:
        return total
    if objects == 1:
        total[0] += _pairwise_steps(states[:, 0, :2], 0, rows - 1)
        return total
    scratch = np.empty((min(_METRIC_ROWS, rows - 1), objects))
    block = np.empty((len(scratch) + 1, objects))
    for lo in range(0, rows - 1, _METRIC_ROWS):
        steps = min(_METRIC_ROWS, rows - 1 - lo)
        block[0] = total
        _step_lengths(states[lo : lo + steps + 1, :, :2], block[1 : steps + 1], scratch[:steps])
        block[: steps + 1].sum(axis=0, out=total)
    return total


def _step_lengths(xy: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) of the steps between the rows of ``xy`` (rows,
    objects, 2), into ``out`` (rows - 1, objects)."""
    x, y = xy[..., 0], xy[..., 1]
    np.subtract(x[1:], x[:-1], out=out)
    out *= out
    np.subtract(y[1:], y[:-1], out=scratch)
    scratch *= scratch
    out += scratch
    return np.sqrt(out, out=out)


def _pairwise_steps(xy: np.ndarray, lo: int, hi: int) -> float:
    """Sum of one object's step lengths lo..hi-1, from its (rows, 2)
    positions ``xy``, in numpy's pairwise order.  numpy splits a range of
    more than 128 steps at half its length rounded down to a multiple of 8
    and sums the halves alike; here the same splits are made until a range
    has at most max(_METRIC_ROWS, 128) steps, and numpy sums that range."""
    n = hi - lo
    if n > max(_METRIC_ROWS, 128):
        half = n // 2 - n // 2 % 8
        return _pairwise_steps(xy, lo, lo + half) + _pairwise_steps(xy, lo + half, hi)
    return float(_step_lengths(xy[lo : hi + 1], np.empty(n), np.empty(n)).sum())


def compute_metrics(
    trace: SimTrace,
    cfg: SurfaceConfig,
    settle: float,
    converged: bool,
    wall_clock: float,
) -> RunMetrics:
    lengths = _path_lengths(trace)
    arrivals = arrival_times(trace, cfg)
    return RunMetrics(
        convergence_time=_latest_arrival(arrivals, trace, settle),
        converged=converged,
        arrival_times=arrivals,
        path_lengths=[float(v) for v in lengths],
        wall_clock=wall_clock,
    )


def _run_metrics_only(sc: Scenario) -> RunMetrics:
    """The metrics of ``run(sc)``; the trace is built and dropped.

    Metrics computed online, without a trace, would serve batch and compare
    as well, but perfbench reads the traces engine.run returns to check and
    count every run, so such a path waits for benchmark rules that do
    without them (ROADMAP items 1 and 4).
    """
    return run(sc)[1]


@dataclass
class BatchEntry:
    """One batch slot: either metrics or the error that aborted that run."""

    scenario: Scenario
    metrics: RunMetrics | None
    error: str | None = None


def batch(scenarios: list[Scenario], workers: int | None = None) -> list[BatchEntry]:
    """Run scenarios independently; failures are reported per entry.

    Parallelism defaults to the CPU count and is capped by the
    MORPHSURF_THREADS environment variable.
    """
    if not scenarios:
        return []
    if workers is None:
        workers = os.cpu_count() or 1
        env = os.environ.get(THREADS_ENV)
        if env:
            try:
                workers = max(1, int(env))
            except ValueError:
                raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    workers = min(workers, len(scenarios))

    if workers <= 1:
        return [_entry(sc, partial(_run_metrics_only, sc)) for sc in scenarios]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_metrics_only, sc) for sc in scenarios]
        return [_entry(sc, fut.result) for sc, fut in zip(scenarios, futures)]


def _entry(sc: Scenario, metrics) -> BatchEntry:
    """The batch slot of ``sc``, whose metrics the call ``metrics`` returns."""
    try:
        return BatchEntry(sc, metrics())
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return BatchEntry(sc, None, error=str(exc))


def seed_sweep(sc: Scenario, seeds: list[int]) -> list[Scenario]:
    """The same scenario under different placement seeds."""
    return [replace(sc, seed=s) for s in seeds]
