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
from .dynamics import ObjectState, PhysicsParams, advance, cell_indices, first_order_lag
from .surface import SurfaceConfig, check_fields, checked

DEFAULT_CONTROL_RATE = 10.0  # Hz
SETTLE_SPEED = 1e-3  # m/s; "at rest" threshold for the stop rule
# single_cell mode's reference cell is the whole surface, and a slow swing
# is at rest at its turning points: there the stop rule also needs the first
# object this close to the cell centre, as a fraction of the cell size.
SINGLE_CELL_SETTLE = 0.01

THREADS_ENV = "MORPHSURF_THREADS"

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
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in control.MODES:
            raise ValueError(f"unknown controller mode {self.mode!r}")
        count = len(self.objects) if self.objects is not None else self.random_count
        if count < 1:
            raise ValueError("scenario needs at least one object, explicit or random")
        cfg = self.cfg
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
    the next row; col/row_heights are the actual (post-response) grid.
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
    rows: list[tuple] = []  # one SimTrace row per tick, in field order
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
        # Each lag step makes new arrays, so the rows below need no copies.
        grid_col = first_order_lag(grid_col, np.asarray(commanded.col_heights), p.tau, period)
        grid_row = first_order_lag(grid_row, np.asarray(commanded.row_heights), p.tau, period)

        rows.append((t, np.column_stack([x, y, vx, vy]), u.dz_col, u.dz_row, grid_col, grid_row))

        if settle_streak >= 2:
            converged = True
            break
        if tick == n_ticks:
            break

        gx, gy = _grid_orientation_terms(grid_col, grid_row, cfg, p.gravity)
        advance(x, y, vx, vy, gx, gy, cfg, p.friction, p.dt, substeps)

    trace = SimTrace(*(np.array(column, dtype=float) for column in zip(*rows)))
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
    ci, cj = cell_indices(x, y, cfg)
    return (ci == cfg.ref_col - 1) & (cj == cfg.ref_row - 1)


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
    """Per-object earliest time after which it never leaves the reference cell."""
    out: list[float | None] = []
    for inside in _contained(trace.states[:, :, 0], trace.states[:, :, 1], cfg).T:
        if inside.all():
            out.append(0.0)
            continue
        last_out = int(np.nonzero(~inside)[0][-1])
        if last_out == len(trace.t) - 1:
            out.append(None)
        else:
            out.append(float(trace.t[last_out + 1]))
    return out


def compute_metrics(
    trace: SimTrace,
    cfg: SurfaceConfig,
    settle: float,
    converged: bool,
    wall_clock: float,
) -> RunMetrics:
    steps = np.diff(trace.states[:, :, :2], axis=0)
    lengths = np.sqrt((steps**2).sum(axis=2)).sum(axis=0)
    arrivals = arrival_times(trace, cfg)
    return RunMetrics(
        convergence_time=_latest_arrival(arrivals, trace, settle),
        converged=converged,
        arrival_times=arrivals,
        path_lengths=[float(v) for v in lengths],
        wall_clock=wall_clock,
    )


def _run_metrics_only(sc: Scenario) -> RunMetrics:
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
