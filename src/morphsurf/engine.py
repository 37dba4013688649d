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
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import control
from .control import ControllerParams
from .dynamics import (
    ObjectState,
    PhysicsParams,
    advance,
    cell_index,
    cell_indices,
    first_order_lag,
)
from .surface import FIELD_LIMIT, FieldError, SurfaceConfig, check_fields, checked, require

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

# Most objects a scenario may place: one trace row of their states, 32 bytes
# each, fits in the reserve.
MAX_OBJECTS = _TRACE_RESERVE // 32
# Most cells a scenario's surface may have: a field build or a grid check
# takes at most 64 bytes per cell, so either fits in the reserve.
MAX_CELLS = _TRACE_RESERVE // 64

# Object-steps the metrics read at a time, as dynamics._HELD_BLOCK bounds
# advance: a block is max(1, _METRIC_STEPS // objects) steps, so up to about
# 2**14 objects its temporaries are a few arrays of about this many floats,
# however long the trace.  Above that a block is two rows, whose arrays hold
# 2 * objects floats each.
_METRIC_STEPS = 1 << 15

_SCHEDULE_KINDS = (("float", "time"), ("int", "column"), ("int", "row"))

# Most physics steps per control period a scenario may ask for.
MAX_SUBSTEPS = 10**6

# Most cells (of the smaller of W and L) an object may cross in one physics
# step.  Positions then stay far below 2**52 workspace extents, past which
# the wall fold of dynamics._fold is no longer exact, and the cell
# indices of a held-cell recurrence far inside the integers.
STEP_CELLS = 2.0**40


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one run; the objects are kept as a
    tuple and the reference schedule sorted by time."""

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
        if self.objects is not None:
            object.__setattr__(self, "objects", tuple(self.objects))
        require(self, (
            ("control_rate", self.control_rate > 0, "positive"),
            ("t_max", self.t_max > 0, "positive"),
            ("seed", self.seed >= 0, ">= 0"),
            ("mode", self.mode in control.MODES, f"one of {', '.join(control.MODES)}"),
        ))
        cfg = self.cfg
        if not math.isfinite(self.t_max / self.control_period):
            raise FieldError("t_max", f"must give a finite number of ticks at "
                                      f"{self.control_rate} Hz, got {self.t_max}")
        if cfg.n * cfg.m > MAX_CELLS:
            raise FieldError("n", f"x m must be at most {MAX_CELLS} cells, got {cfg.n}x{cfg.m}")
        for name, axis, extent in (("W", "n", cfg.width), ("L", "m", cfg.length)):
            if extent > FIELD_LIMIT:  # so that a step between two positions squares finitely
                raise FieldError(name, f"x {axis} must be at most 2**500, got {extent:g}")
        if self.mode == "single_cell":
            if (cfg.n, cfg.m) != (1, 1):
                raise FieldError("mode", f"single_cell needs a 1x1 surface, got {cfg.n}x{cfg.m}")
            if self.params.gains is not None:
                self.params.gains.validate(cfg)
        count = len(self.objects) if self.objects is not None else self.random_count
        if not 1 <= count <= MAX_OBJECTS:
            raise FieldError("objects" if self.objects is not None else "random_count",
                             f"must give at least one object and at most {MAX_OBJECTS}, "
                             f"got {count}")
        for k, o in enumerate(self.objects or ()):
            if not (0.0 <= o.x <= cfg.width and 0.0 <= o.y <= cfg.length):
                raise FieldError(
                    f"objects[{k}]", f"at ({o.x}, {o.y}) lies outside the workspace "
                                     f"[0, {cfg.width}] x [0, {cfg.length}]"
                )
        if not isinstance(self.reference_schedule, (list, tuple)):
            raise FieldError("reference_schedule", "must be a list of [time, column, row]")
        schedule = []
        for k, entry in enumerate(self.reference_schedule):
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise FieldError(f"reference_schedule[{k}]", "must be [time, column, row]")
            when, col, row = (checked(value, kind, f"reference_schedule[{k}] {part}")
                              for value, (kind, part) in zip(entry, _SCHEDULE_KINDS))
            if not (when >= 0.0 and 1 <= col <= cfg.n and 1 <= row <= cfg.m):
                raise FieldError(
                    f"reference_schedule[{k}]", f"[{when}, {col}, {row}] needs a time "
                                                f">= 0 and a cell of the {cfg.n}x{cfg.m} grid"
                )
            schedule.append((when, col, row))
        schedule.sort(key=lambda entry: entry[0])
        object.__setattr__(self, "reference_schedule", tuple(schedule))
        p, period = self.physics, self.control_period
        if period / p.dt > MAX_SUBSTEPS:
            raise FieldError("dt", f"gives {period / p.dt:g} steps per control period "
                                   f"{period}, more than {MAX_SUBSTEPS}")
        if self.substeps < 1 or abs(self.substeps * p.dt - period) > 1e-6 * period:
            raise FieldError("dt", f"{p.dt} does not divide the control period {period}")
        # Half of STEP_CELLS may come from an object's initial speed and half
        # from the speed gravity adds: at most g per second, g / b in all.
        # Neither half passes FIELD_LIMIT, so a speed squared cannot overflow.
        reach = min(STEP_CELLS / 2 * min(cfg.W, cfg.L) / p.dt, FIELD_LIMIT)
        horizon = min(self.t_max + period, 1.0 / p.friction if p.friction else math.inf)
        limits = [(f"objects[{k}].v{axis}", abs(getattr(o, "v" + axis)), reach)
                  for k, o in enumerate(self.objects or ()) for axis in "xy"]
        for name, value, limit in limits + [("gravity", p.gravity, reach / horizon)]:
            if value > limit:
                raise FieldError(name, f"must be at most {limit:g} here, or an object may cross "
                                       f"more than 2**40 cells in one step or pass 2**500 m/s")

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
    """Outcome of one run; its fields, in order, are the keys of
    metrics.json ahead of the scenario echo.

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


def initial_state(sc: Scenario) -> np.ndarray:
    """Initial state, a float (4, objects) array with rows x, y, vx, vy: the
    explicit objects, or seeded uniform placement at rest over the workspace."""
    if sc.objects is not None:
        return np.array([[o.x, o.y, o.vx, o.vy] for o in sc.objects], dtype=float).T.copy()
    rng = np.random.default_rng(sc.seed)
    xs = rng.uniform(0.0, sc.cfg.width, sc.random_count)
    ys = rng.uniform(0.0, sc.cfg.length, sc.random_count)
    return np.vstack((xs, ys, np.zeros((2, sc.random_count))))


def _grid_orientation_terms(
    grid_col: np.ndarray, grid_row: np.ndarray, cfg: SurfaceConfig, gravity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell gravity acceleration components (n, m) for the substep kernel.

    Cell (i, j) has pitch atan2(dz_col[i], W), shared by its column, and
    roll atan2(-cos(pitch) * dz_row[j], L) (surface.cell_orientation);
    gx = g Ct Cp^2 St and gy = -g Ct Cp Sp as in the dynamics docstring.
    With the slopes s = dz_col/W and r = dz_row/L, Ct^2 = c = 1/(1 + s^2)
    and Cp^2 = 1/h with h = 1 + c r^2, so gx = g s c / h and gy = g c r / h
    with no trig.  These agree with the trig form to a few ulp, signed
    zeros included.  The slopes are formed first so that a huge W or L
    cannot overflow a squared length.
    """
    s = (grid_col[:-1] - grid_col[1:]) / cfg.W
    r = (grid_row[:-1] - grid_row[1:]) / cfg.L
    c = (1.0 / (1.0 + s * s))[:, None]
    h = 1.0 + c * (r * r)
    return gravity * s[:, None] * c / h, gravity * c * r / h


def run(sc: Scenario) -> tuple[SimTrace, RunMetrics]:
    """Simulate one scenario until the settle rule holds or t_max is reached."""
    start = time.perf_counter()
    cfg = sc.cfg
    p = sc.physics
    period = sc.control_period
    substeps = sc.substeps
    n_ticks = int(round(sc.t_max / period))

    state = initial_state(sc)
    x, y, vx, vy = state  # row views: advance moves the objects in place
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
    settle_streak = 0
    converged = False
    # The (2, N) cells of the objects, looked up here once; from then on each
    # advance returns the cells of the positions it leaves.
    cells = cell_indices(x, y, cfg)

    for tick in range(n_ticks + 1):
        t = tick * period
        ref_cfg = ref_cfgs[bisect.bisect_right(ref_times, t) - 1]

        # Stop once containment + rest has held for one full control period.
        if _settled(x, y, vx, vy, cells, ref_cfg, centred):
            settle_streak += 1
        else:
            settle_streak = 0

        u, commanded = control.command(x, y, vx, vy, sc.mode, sc.params, ref_cfg, cells)
        grid_col = first_order_lag(grid_col, np.asarray(commanded.col_heights), p.tau, period)
        grid_row = first_order_lag(grid_row, np.asarray(commanded.row_heights), p.tau, period)

        if tick == capacity:
            capacity = min(2 * capacity, n_ticks + 1)
            grown = [np.empty((capacity, *column.shape[1:])) for column in columns]
            for new, old in zip(grown, columns):
                new[:tick] = old
            columns = grown
        for column, value in zip(columns, (t, state.T, u.dz_col, u.dz_row, grid_col, grid_row)):
            column[tick] = value

        if settle_streak >= 2:
            converged = True
            break
        if tick == n_ticks:
            break

        gx, gy = _grid_orientation_terms(grid_col, grid_row, cfg, p.gravity)
        cells = advance(x, y, vx, vy, gx, gy, cfg, p.friction, p.dt, substeps, cells)

    trace = SimTrace(*(column[: tick + 1] for column in columns))
    wall_clock = time.perf_counter() - start
    convergence, arrivals, lengths = compute_metrics(trace, ref_cfgs[-1], settle=period)
    return trace, RunMetrics(convergence, converged, arrivals, lengths, wall_clock)


def _settled(
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    cells: np.ndarray,
    cfg: SurfaceConfig,
    centred: bool,
) -> bool:
    """Every object, at (x[k], y[k]) in the cell (cells[0, k], cells[1, k]),
    in the reference cell and at rest; with ``centred`` (single_cell mode)
    the first object also within SINGLE_CELL_SETTLE of the cell centre."""
    if (vx * vx + vy * vy > SETTLE_SPEED * SETTLE_SPEED).any():
        return False
    if centred and not (
        abs(x[0] - (cfg.ref_col - 0.5) * cfg.W) <= SINGLE_CELL_SETTLE * cfg.W
        and abs(y[0] - (cfg.ref_row - 0.5) * cfg.L) <= SINGLE_CELL_SETTLE * cfg.L
    ):
        return False
    return bool(((cells[0] == cfg.ref_col - 1) & (cells[1] == cfg.ref_row - 1)).all())


def _contained(x: np.ndarray, y: np.ndarray, cfg: SurfaceConfig) -> np.ndarray:
    """Whether each position lies in the reference cell; each axis is reduced
    to bools before the other's cell indices are made."""
    inside = cell_index(x, cfg.W, cfg.n - 1) == cfg.ref_col - 1
    inside &= cell_index(y, cfg.L, cfg.m - 1) == cfg.ref_row - 1
    return inside


def compute_metrics(
    trace: SimTrace, cfg: SurfaceConfig, settle: float
) -> tuple[float | None, list[float | None], list[float]]:
    """(convergence_time, arrival_times, path_lengths) of ``trace`` for the
    reference surface ``cfg``, as RunMetrics states them.

    One pass reads the trace in blocks of about _METRIC_STEPS object-steps.
    Each block notes every object's last row outside the reference cell,
    whose next row's time is its arrival (0.0 if never outside, None if
    outside on the last row).  The path lengths are running sums: each
    step's length sqrt(dx*dx + dy*dy) is added to its object's total in
    trace order, by np.add.accumulate over a block whose first row is the
    running total, so a path length does not depend on how many objects
    share the trace.  The convergence time is the latest arrival, if the
    trace runs on for the ``settle`` window after it.
    """
    states = trace.states
    rows, objects = states.shape[:2]
    last_out = np.full(objects, -1)
    total = np.zeros(objects)
    span = max(1, _METRIC_STEPS // objects)
    for lo in range(0, max(rows - 1, 1), span):
        x, y = states[lo : lo + span + 1, :, :2].transpose(2, 0, 1)
        outside = ~_contained(x, y, cfg)
        found = outside.any(axis=0)
        last_out[found] = lo + len(x) - 1 - outside[::-1].argmax(axis=0)[found]
        block = np.empty((len(x), objects))
        block[0] = total
        steps = block[1:]
        np.subtract(x[1:], x[:-1], out=steps)
        steps *= steps
        dy = y[1:] - y[:-1]
        dy *= dy
        steps += dy
        np.sqrt(steps, out=steps)
        np.add.accumulate(block, axis=0, out=block)
        total = block[-1].copy()
        # freed before the next block's containment makes its own temporaries
        del block, steps, dy
    arrivals = [0.0 if k < 0 else None if k == rows - 1 else float(trace.t[k + 1])
                for k in last_out.tolist()]
    latest = None if None in arrivals else max(arrivals)
    if latest is not None and trace.t[-1] - latest < settle - 1e-12:
        latest = None
    return latest, arrivals, [float(v) for v in total]


def _run_metrics_only(sc: Scenario) -> RunMetrics:
    """The metrics of ``run(sc)``: a process pool sends back only these,
    not the trace."""
    return run(sc)[1]


@dataclass
class BatchEntry:
    """One batch slot, in the order of the scenarios given: either metrics
    or the error that aborted that run."""

    metrics: RunMetrics | None
    error: str | None = None


def batch(scenarios: list[Scenario]) -> list[BatchEntry]:
    """Run scenarios independently; failures are reported per entry.

    Parallelism is the CPU count, or the MORPHSURF_THREADS environment
    variable where it is set, a positive integer; never more processes than
    CPUs or scenarios.
    """
    workers = cpus = os.cpu_count() or 1
    if env := os.environ.get(THREADS_ENV):
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")
    workers = min(workers, cpus, len(scenarios))

    if workers <= 1:
        return [_entry(partial(_run_metrics_only, sc)) for sc in scenarios]
    # Imported here, so that a serial batch loads no process machinery.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_metrics_only, sc) for sc in scenarios]
        return [_entry(fut.result) for fut in futures]


def _entry(metrics) -> BatchEntry:
    """The batch slot whose metrics the call ``metrics`` returns."""
    try:
        return BatchEntry(metrics())
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return BatchEntry(None, error=str(exc))
