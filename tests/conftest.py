"""Shared generators and oracles for randomized kinematics/dynamics tests."""

import math
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import strategies as st

from morphsurf import (
    ActuatorGrid,
    ControlInput,
    ControllerParams,
    ObjectState,
    PhysicsParams,
    SingleCellGains,
    SurfaceConfig,
    cell_orientation,
    reconstruct_actuator_grid,
)
from morphsurf.control import MODES, SINGLE_CELL_KD, split_fractions
from morphsurf.dynamics import cell_indices
from morphsurf.engine import SETTLE_SPEED, SINGLE_CELL_SETTLE, RunMetrics, Scenario, SimTrace
from morphsurf.scenario import FLOAT_FMT, trace_header
from morphsurf.surface import ANGLE_TOL, PLANARITY_TOL, ConstraintReport


def random_config(rng, max_n=8, max_m=8) -> SurfaceConfig:
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    return SurfaceConfig(
        n=n,
        m=m,
        W=float(rng.uniform(0.5, 3.0)),
        L=float(rng.uniform(0.5, 3.0)),
        stroke=float(rng.uniform(0.3, 1.5)),
        ref_col=int(rng.integers(1, n + 1)),
        ref_row=int(rng.integers(1, m + 1)),
    )


def _side_split(rng, count: int, total: float) -> np.ndarray:
    if count == 0:
        return np.zeros(0)
    return rng.dirichlet(np.ones(count)) * total


def random_feasible_input(rng, cfg: SurfaceConfig) -> ControlInput:
    """Controller-shaped input: drops point toward the reference, run sums
    bounded by the per-axis stroke share, so reconstruction stays in [0, l]."""
    a = float(rng.uniform(0.0, 1.0))
    b = 1.0 - a
    dz_col = np.zeros(cfg.n)
    left = _side_split(rng, cfg.ref_col - 1, a * cfg.stroke * rng.uniform(0, 1))
    right = _side_split(rng, cfg.n - cfg.ref_col, a * cfg.stroke * rng.uniform(0, 1))
    dz_col[: cfg.ref_col - 1] = left
    dz_col[cfg.ref_col :] = -right
    dz_row = np.zeros(cfg.m)
    below = _side_split(rng, cfg.ref_row - 1, b * cfg.stroke * rng.uniform(0, 1))
    above = _side_split(rng, cfg.m - cfg.ref_row, b * cfg.stroke * rng.uniform(0, 1))
    dz_row[: cfg.ref_row - 1] = below
    dz_row[cfg.ref_row :] = -above
    return ControlInput(tuple(dz_col), tuple(dz_row))


def component_heights_reference(dz, ref: int) -> list[float]:
    """Oracle of ``surface._component_heights``: each height sums its own
    slice of dz with numpy's summation, lines 1..ref as sum(dz[I-1:ref]),
    line ref+1 as minus the empty sum and the lines past it as
    -sum(dz[ref:I-1]).  numpy sums 8 or more drops pairwise, in another
    order than a running sum."""
    d = np.asarray(dz)
    return (
        [float(np.add.reduce(d[i:ref])) for i in range(ref)]
        + [-0.0]
        + [float(-np.add.reduce(d[ref:i])) for i in range(ref + 1, len(dz) + 1)]
    )


def validate_grid_reference(
    h, cfg: SurfaceConfig, tol=PLANARITY_TOL, angle_tol=ANGLE_TOL
) -> ConstraintReport:
    """Oracle of ``surface.validate_grid`` on a raw (n+1) x (m+1) height
    array: every actuator and every cell visited in a Python loop, each
    cell's pitch and roll from math.atan2 and math.cos."""
    report = ConstraintReport()
    for i in range(cfg.n + 1):
        for j in range(cfg.m + 1):
            if not -tol <= h[i, j] <= cfg.stroke + tol:  # NaN too
                report.bounds.append(((i + 1, j + 1), float(h[i, j])))
    pitch = np.empty((cfg.n, cfg.m))
    ratio = np.empty((cfg.n, cfg.m))  # tan(roll)/cos(pitch) per cell
    for i in range(cfg.n):
        for j in range(cfg.m):
            z1, z2 = h[i, j], h[i + 1, j]
            z3, z4 = h[i + 1, j + 1], h[i, j + 1]
            res = abs(z3 + z1 - z2 - z4)
            if res > tol:
                report.planarity.append(((i + 1, j + 1), float(res)))
            pitch[i, j] = math.atan2(z1 - z2, cfg.W)
            roll = math.atan2(-math.cos(pitch[i, j]) * (z1 - z4), cfg.L)
            ratio[i, j] = math.tan(roll) / math.cos(pitch[i, j])
    for i in range(cfg.n):
        spread = float(np.max(np.abs(pitch[i] - pitch[i, 0])))
        if spread > angle_tol:
            report.pitch.append((i + 1, spread))
    for j in range(cfg.m):
        for i in range(cfg.n - 1):
            res = abs(ratio[i + 1, j] - ratio[i, j])
            if res > angle_tol:
                report.roll.append(((i + 2, j + 1), float(res)))
    return report


def slaved_energy(x, y, vx, vy, col, row, cfg, gravity):
    """Mechanical energy per object with the vertical rate slaved to the
    surface; returns (energy, occupied cell indices)."""
    dzc = col[:-1] - col[1:]
    dzr = row[:-1] - row[1:]
    ci = np.minimum((x // cfg.W).astype(int), cfg.n - 1)
    cj = np.minimum((y // cfg.L).astype(int), cfg.m - 1)
    z1 = col[ci] + row[cj]
    fx = (x - ci * cfg.W) / cfg.W
    fy = (y - cj * cfg.L) / cfg.L
    h = z1 - fx * dzc[ci] - fy * dzr[cj]
    sx = -dzc[ci] / cfg.W
    sy = -dzr[cj] / cfg.L
    vz = sx * vx + sy * vy
    return 0.5 * (vx * vx + vy * vy + vz * vz) + gravity * h, (ci, cj)


def object_arrays(objects):
    """The (x, y, vx, vy) arrays the engine and the controllers work on,
    from a list of ObjectState."""
    return tuple(
        np.array([getattr(o, k) for o in objects], dtype=float)
        for k in ("x", "y", "vx", "vy")
    )


def orientation_field(u: ControlInput, cfg: SurfaceConfig):
    """CellOrientation of every cell of the surface commanded by ``u``,
    indexed [I-1][J-1], one cell at a time.  On the separable surface every
    cell (I, J) sees the drops (dz_col[I], dz_row[J]), so each column shares
    one pitch and the rolls along a row follow the nonholonomic relation."""
    return [
        [cell_orientation(u.dz_col[i], u.dz_row[j], cfg) for j in range(cfg.m)]
        for i in range(cfg.n)
    ]


def steady_speed(o, p):
    """Closed-form terminal speed along x on a constant slope of orientation
    ``o`` with friction: (g/b) Ct Cp St."""
    return p.gravity / p.friction * math.cos(o.pitch) * math.cos(o.roll) * math.sin(o.pitch)


def gravity_field(field, gravity):
    """Per-cell oracle of the engine's field build: gravity acceleration
    components (n, m) from a grid of CellOrientation, one cell at a time."""
    n = len(field)
    m = len(field[0])
    gx = np.empty((n, m))
    gy = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            o = field[i][j]
            ct, st = math.cos(o.pitch), math.sin(o.pitch)
            cp, sp = math.cos(o.roll), math.sin(o.roll)
            gx[i, j] = gravity * ct * cp * cp * st
            gy[i, j] = -gravity * ct * cp * sp
    return gx, gy


def slope_field(dz_col, dz_row, cfg: SurfaceConfig, gravity):
    """Per-cell oracle of the engine's field build in its trig-free form:
    with the slopes s = dz_col[i] / W and r = dz_row[j] / L, c = 1/(1 + s^2)
    and h = 1 + c r^2, cell (i, j) has gx = g s c / h and gy = g c r / h,
    one cell at a time in scalar arithmetic."""
    gx = np.empty((len(dz_col), len(dz_row)))
    gy = np.empty_like(gx)
    for i, dz1 in enumerate(dz_col):
        s = dz1 / cfg.W
        c = 1.0 / (1.0 + s * s)
        for j, dz2 in enumerate(dz_row):
            r = dz2 / cfg.L
            h = 1.0 + c * (r * r)
            gx[i, j] = gravity * s * c / h
            gy[i, j] = gravity * c * r / h
    return gx, gy


def step(objects, field, p, cfg):
    """One integration step of ``p.dt`` for every object on a fixed field of
    CellOrientation; objects do not interact."""
    x, y, vx, vy = object_arrays(objects)
    gx, gy = gravity_field(field, p.gravity)
    advance_reference(x, y, vx, vy, gx, gy, cfg, p.friction, p.dt)
    return [
        ObjectState(float(x[k]), float(y[k]), float(vx[k]), float(vy[k]))
        for k in range(len(objects))
    ]


def advance_reference(x, y, vx, vy, gx_cell, gy_cell, cfg, friction, dt, substeps=1):
    """Oracle of ``dynamics.advance``: one substep at a time, each object's
    cell looked up again before every substep (floor(x / W), capped at the
    last cell), then the semi-implicit Euler step and the reflection at the
    walls, on x and y separately."""
    keep = 1.0 - friction * dt
    for _ in range(substeps):
        ci = np.minimum(np.floor(x / cfg.W).astype(np.intp), cfg.n - 1)
        cj = np.minimum(np.floor(y / cfg.L).astype(np.intp), cfg.m - 1)
        vx *= keep
        vx += gx_cell[ci, cj] * dt
        vy *= keep
        vy += gy_cell[ci, cj] * dt
        x += vx * dt
        y += vy * dt
        reflect_reference(x, vx, cfg.width)
        reflect_reference(y, vy, cfg.length)


def reflect_reference(pos, vel, hi):
    """Elastic reflection into [0, hi] in place; an overshoot of k extents
    past 0 has bounced |k| times, so odd k mirrors it and reverses vel."""
    far = (pos < -hi) | (pos > 2.0 * hi)
    k = np.floor(pos[far] / hi)
    r = pos[far] - k * hi
    odd = k % 2 != 0
    pos[far] = np.where(odd, hi - r, r)
    vel[far] = np.where(odd, -vel[far], vel[far])
    below = pos < 0.0
    pos[below] = -pos[below]
    vel[below] = -vel[below]
    above = pos > hi
    pos[above] = 2.0 * hi - pos[above]
    vel[above] = -vel[above]


@dataclass(frozen=True)
class OccupancySets:
    """Occupied 1-based columns/rows split by their side of the reference
    cell; the reference column and row never appear."""

    cols_left: tuple[int, ...]
    cols_right: tuple[int, ...]
    rows_below: tuple[int, ...]
    rows_above: tuple[int, ...]


def locate_cell(x: float, y: float, cfg: SurfaceConfig) -> tuple[int, int]:
    """1-based (column, row) of the cell holding the point (x, y), one
    scalar at a time: the workspace check and the cell rule, stated apart
    from the Scenario check and dynamics.cell_indices to check them.  A
    point outside [0, width] x [0, length], NaN included, raises."""
    if not (0.0 <= x <= cfg.width and 0.0 <= y <= cfg.length):
        raise ValueError(f"position ({x}, {y}) outside the workspace")
    return min(math.floor(x / cfg.W), cfg.n - 1) + 1, min(math.floor(y / cfg.L), cfg.m - 1) + 1


def occupancy_reference(x, y, cfg: SurfaceConfig) -> OccupancySets:
    """The occupied columns/rows on each side of the reference cell, for
    objects at positions (x[k], y[k])."""
    cells = [locate_cell(px, py, cfg) for px, py in zip(x.tolist(), y.tolist())]
    cols = sorted({c for c, _ in cells})  # 1-based
    rows = sorted({r for _, r in cells})
    return OccupancySets(
        cols_left=tuple(c for c in cols if c < cfg.ref_col),
        cols_right=tuple(c for c in cols if c > cfg.ref_col),
        rows_below=tuple(r for r in rows if r < cfg.ref_row),
        rows_above=tuple(r for r in rows if r > cfg.ref_row),
    )


def distributed_reference(s: OccupancySets, a, b, cfg: SurfaceConfig):
    """Each side's stroke share spread evenly over its occupied columns/rows,
    as (dz_col, dz_row)."""
    dz_col = [0.0] * cfg.n
    for col in s.cols_left:
        dz_col[col - 1] = a * cfg.stroke / len(s.cols_left)
    for col in s.cols_right:
        dz_col[col - 1] = -a * cfg.stroke / len(s.cols_right)
    dz_row = [0.0] * cfg.m
    for row in s.rows_below:
        dz_row[row - 1] = b * cfg.stroke / len(s.rows_below)
    for row in s.rows_above:
        dz_row[row - 1] = -b * cfg.stroke / len(s.rows_above)
    return tuple(dz_col), tuple(dz_row)


def wave_reference(s: OccupancySets, a, b, cfg: SurfaceConfig):
    """Each side's full stroke share on its outermost occupied column/row,
    as (dz_col, dz_row)."""
    dz_col = [0.0] * cfg.n
    if s.cols_left:
        dz_col[min(s.cols_left) - 1] = a * cfg.stroke
    if s.cols_right:
        dz_col[max(s.cols_right) - 1] = -a * cfg.stroke
    dz_row = [0.0] * cfg.m
    if s.rows_below:
        dz_row[min(s.rows_below) - 1] = b * cfg.stroke
    if s.rows_above:
        dz_row[max(s.rows_above) - 1] = -b * cfg.stroke
    return tuple(dz_col), tuple(dz_row)


def funnel_reference(a, b, cfg: SurfaceConfig):
    """The time-invariant bowl: distributed allocation as if every column and
    row were occupied, as (dz_col, dz_row)."""
    full = OccupancySets(
        cols_left=tuple(range(1, cfg.ref_col)),
        cols_right=tuple(range(cfg.ref_col + 1, cfg.n + 1)),
        rows_below=tuple(range(1, cfg.ref_row)),
        rows_above=tuple(range(cfg.ref_row + 1, cfg.m + 1)),
    )
    return distributed_reference(full, a, b, cfg)


def allocation_reference(x, y, mode, params, cfg: SurfaceConfig):
    """Oracle of ``control.command`` in the multi-cell modes: the commanded
    ControlInput and its ActuatorGrid, each controller writing its rule out
    for both sides of both axes."""
    if mode == "funnel":
        dz = funnel_reference(params.frac_x, params.frac_y, cfg)
    else:
        a, b = split_fractions(x, y, params, cfg)
        allocate = {"distributed": distributed_reference, "wave": wave_reference}[mode]
        dz = allocate(occupancy_reference(x, y, cfg), a, b, cfg)
    u = ControlInput(*dz)
    return u, reconstruct_actuator_grid(u, cfg)


def path_lengths_reference(trace):
    """Oracle of the metrics' path lengths: the length of every step between
    trace rows from np.diff over (rows - 1, objects, 2), added to a running
    total from 0.0 in trace order, one whole-trace np.add.accumulate."""
    steps = np.diff(trace.states[:, :, :2], axis=0)
    lengths = np.sqrt((steps**2).sum(axis=2))
    return np.add.accumulate(np.vstack((np.zeros(lengths.shape[1]), lengths)), axis=0)[-1]


def arrival_times_reference(trace, cfg: SurfaceConfig):
    """Oracle of the metrics' arrival times: both axes' cell indices at once,
    then per object the time after its last row outside the reference cell
    (0.0 if never outside, None if outside on the last row)."""
    ci, cj = cell_indices(trace.states[:, :, 0], trace.states[:, :, 1], cfg)
    inside = (ci == cfg.ref_col - 1) & (cj == cfg.ref_row - 1)
    out = []
    for column in inside.T:
        outside = np.nonzero(~column)[0]
        if outside.size == 0:
            out.append(0.0)
        elif outside[-1] == len(trace.t) - 1:
            out.append(None)
        else:
            out.append(float(trace.t[outside[-1] + 1]))
    return out


def write_trace_csv_reference(trace, path):
    """Oracle of ``scenario.write_trace_csv``: the header, then the whole
    trace copied into one table and formatted one row at a time."""
    rows = len(trace.t)
    header = trace_header(trace.n_objects, trace.dz_col.shape[1], trace.dz_row.shape[1])
    table = np.column_stack([
        trace.t, trace.states.reshape(rows, -1), trace.dz_col, trace.dz_row,
        trace.col_heights, trace.row_heights,
    ])
    line = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(line % tuple(row.tolist()))


def trace_of_fields(t, states, dz_col, dz_row, col_heights, row_heights) -> SimTrace:
    """The SimTrace whose six views are these per-field arrays, rows first:
    t (rows,), states (rows, objects, 4) and the four grid fields (rows, n),
    (rows, m), (rows, n + 1) and (rows, m + 1).  The table's width is that
    of the trace CSV header, and each view reads back its field's shape."""
    fields = [np.asarray(f, dtype=float) for f in (t, states, dz_col, dz_row, col_heights,
                                                   row_heights)]
    rows, objects = fields[1].shape[:2]
    n, m = fields[2].shape[1], fields[3].shape[1]
    table = np.column_stack([fields[0], fields[1].reshape(rows, -1), *fields[2:]])
    assert table.shape[1] == len(list(trace_header(objects, n, m)))
    trace = SimTrace(table, objects, n, m)
    names = ("t", "states", "dz_col", "dz_row", "col_heights", "row_heights")
    assert [getattr(trace, name).shape for name in names] == [f.shape for f in fields]
    return trace


def single_cell_reference(x, y, vx, vy, gains, cfg: SurfaceConfig):
    """Oracle of ``control.command`` in single_cell mode: the law
    dz = -k * sat(e + SINGLE_CELL_KD * v, bound) on each axis for the first
    object, gains defaulting to their caps and the bounds the cell size W
    and L, and the grid tilting about the cell midlines."""
    if gains is None:
        kx, ky = cfg.stroke / (2 * cfg.W), cfg.stroke / (2 * cfg.L)
    else:
        kx, ky = gains.kx, gains.ky
    e_x, e_y = float(x[0]) - cfg.W / 2.0, float(y[0]) - cfg.L / 2.0
    dz1 = -kx * max(-cfg.W, min(cfg.W, e_x + SINGLE_CELL_KD * float(vx[0])))
    dz2 = -ky * max(-cfg.L, min(cfg.L, e_y + SINGLE_CELL_KD * float(vy[0])))
    quarter = cfg.stroke / 4.0
    grid = ActuatorGrid((quarter + dz1 / 2.0, quarter - dz1 / 2.0),
                        (quarter + dz2 / 2.0, quarter - dz2 / 2.0))
    return ControlInput((dz1,), (dz2,)), grid


def run_reference(sc) -> tuple[SimTrace, RunMetrics]:
    """Oracle of ``engine.run``: the straightforward engine.  Every tick
    finds the reference cell in the schedule, applies the settle rule,
    computes the command afresh (``allocation_reference`` or
    ``single_cell_reference``), passes it through the actuator lag, records
    the row, builds the field from the actual grid with ``slope_field`` and
    steps the objects one substep at a time with ``advance_reference``.
    The metrics come from ``arrival_times_reference`` and
    ``path_lengths_reference``; wall_clock is 0."""
    cfg, p = sc.cfg, sc.physics
    period = 1.0 / sc.control_rate
    substeps, n_ticks = round(period / p.dt), int(round(sc.t_max / period))
    if sc.objects is not None:
        x, y, vx, vy = object_arrays(sc.objects)
    else:
        rng = np.random.default_rng(sc.seed)
        x = rng.uniform(0.0, cfg.width, sc.random_count)
        y = rng.uniform(0.0, cfg.length, sc.random_count)
        vx, vy = np.zeros(sc.random_count), np.zeros(sc.random_count)
    col, row = np.zeros(cfg.n + 1), np.zeros(cfg.m + 1)
    rows, streak, converged = [], 0, False
    for tick in range(n_ticks + 1):
        t = tick * period
        ref = (cfg.ref_col, cfg.ref_row)
        for when, c, r in sc.reference_schedule:
            if when - 1e-12 <= t:
                ref = (c, r)
        ref_cfg = replace(cfg, ref_col=ref[0], ref_row=ref[1])

        ci, cj = cell_indices(x, y, ref_cfg)
        settled = bool(((ci == ref[0] - 1) & (cj == ref[1] - 1)).all()) and bool(
            (vx * vx + vy * vy <= SETTLE_SPEED * SETTLE_SPEED).all())
        if sc.mode == "single_cell":
            settled = settled and (
                abs(x[0] - (ref[0] - 0.5) * cfg.W) <= SINGLE_CELL_SETTLE * cfg.W
                and abs(y[0] - (ref[1] - 0.5) * cfg.L) <= SINGLE_CELL_SETTLE * cfg.L)
        streak = streak + 1 if settled else 0

        if sc.mode == "single_cell":
            u, grid = single_cell_reference(x, y, vx, vy, sc.params.gains, ref_cfg)
        else:
            u, grid = allocation_reference(x, y, sc.mode, sc.params, ref_cfg)
        if p.tau == 0.0:
            col, row = np.array(grid.col_heights), np.array(grid.row_heights)
        else:
            share = 1.0 - math.exp(-period / p.tau)
            col = col + (np.array(grid.col_heights) - col) * share
            row = row + (np.array(grid.row_heights) - row) * share
        rows.append((t, np.column_stack((x, y, vx, vy)), u.dz_col, u.dz_row, col, row))
        if streak >= 2:
            converged = True
            break
        if tick == n_ticks:
            break

        gx, gy = slope_field(col[:-1] - col[1:], row[:-1] - row[1:], cfg, p.gravity)
        advance_reference(x, y, vx, vy, gx, gy, cfg, p.friction, p.dt, substeps)

    trace = trace_of_fields(*(np.array(field, dtype=float) for field in zip(*rows)))
    last = sc.reference_schedule[-1][1:] if sc.reference_schedule else (cfg.ref_col, cfg.ref_row)
    arrivals = arrival_times_reference(trace, replace(cfg, ref_col=last[0], ref_row=last[1]))
    latest = None if None in arrivals else max(arrivals)
    if latest is not None and trace.t[-1] - latest < period - 1e-12:
        latest = None
    lengths = [float(v) for v in path_lengths_reference(trace)]
    return trace, RunMetrics(latest, converged, arrivals, lengths, 0.0)


def inline_pool(sizes: list):
    """A stand-in for ProcessPoolExecutor that appends each pool's size to
    ``sizes`` and runs each job inline: no process starts."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    return InlinePool


@st.composite
def whole_runs(draw, modes=MODES):
    """A scenario of 1x1 to 6x6 cells (1x1 in single_cell mode) in any of
    ``modes``, with 1-40 objects: listed, moving and some on cell
    boundaries or walls, seeded at rest, or at rest in the reference cell.
    Gravity, friction, actuator lag, physics step, stroke split, hardware
    split, single-cell gains and a reference schedule of up to three entries
    are drawn too."""
    mode = draw(st.sampled_from(modes))
    n, m = (1, 1) if mode == "single_cell" else (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    size = st.sampled_from([0.5, 1.0, 2.0])
    cfg = SurfaceConfig(n, m, draw(size), draw(size), 1.0,
                        draw(st.integers(1, n)), draw(st.integers(1, m)))
    physics = PhysicsParams(gravity=draw(st.sampled_from([0.0981, 9.81])),
                            friction=draw(st.sampled_from([0.0, 0.1, 2.0])),
                            tau=draw(st.sampled_from([0.0, 0.3])),
                            dt=draw(st.sampled_from([0.01, 0.02, 0.05])))
    t_max = draw(st.sampled_from([5.0, 30.0]))
    gains = None
    if mode == "single_cell" and draw(st.booleans()):
        share = st.floats(0.05, 1.0)
        gains = SingleCellGains(draw(share) * 0.5 / cfg.W, draw(share) * 0.5 / cfg.L)
    a = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    params = ControllerParams(a, 1.0 - a, gains, draw(st.booleans()))
    when = st.floats(0.0, t_max) | st.integers(0, int(t_max * 10)).map(lambda k: k / 10)
    schedule = tuple(draw(st.lists(
        st.tuples(when, st.integers(1, n), st.integers(1, m)), max_size=3)))

    def coordinate(count, size, extent):
        edges = [k * size for k in range(count + 1)]
        return st.floats(0.0, extent) | st.sampled_from(edges)

    speed = st.floats(-2.0, 2.0) | st.just(0.0) | st.floats(-1e3, 1e3)
    objects, count = None, 0
    placement = draw(st.sampled_from(["listed", "seeded", "home"]))
    if placement == "listed":
        objects = tuple(draw(st.lists(
            st.builds(ObjectState, coordinate(n, cfg.W, cfg.width),
                      coordinate(m, cfg.L, cfg.length), speed, speed),
            min_size=1, max_size=40)))
    elif placement == "home":  # at rest in the reference cell: settled at once
        inside = st.floats(0.1, 0.9)
        objects = tuple(draw(st.lists(st.builds(
            lambda fx, fy: ObjectState((cfg.ref_col - fx) * cfg.W, (cfg.ref_row - fy) * cfg.L),
            inside, inside), min_size=1, max_size=40)))
    else:
        count = draw(st.integers(1, 40))
    return Scenario(cfg, physics, mode, params, objects, count, t_max=t_max,
                    seed=draw(st.integers(0, 2**16)), reference_schedule=schedule)
