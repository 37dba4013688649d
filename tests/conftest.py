"""Shared generators and oracles for randomized kinematics/dynamics tests."""

import math
from dataclasses import dataclass

import numpy as np

from morphsurf import ControlInput, ObjectState, SurfaceConfig, reconstruct_actuator_grid
from morphsurf.control import split_fractions
from morphsurf.dynamics import cell_indices, locate_cell
from morphsurf.scenario import FLOAT_FMT, trace_header


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


def occupancy_reference(x, y, cfg: SurfaceConfig) -> OccupancySets:
    """The occupied columns/rows on each side of the reference cell, for
    objects at positions (x[k], y[k])."""
    for px, py in zip(x.tolist(), y.tolist()):
        locate_cell(ObjectState(px, py), cfg)  # raises for the first one outside
    ci, cj = cell_indices(x, y, cfg)
    cols = sorted(set(ci.tolist()))  # 0-based
    rows = sorted(set(cj.tolist()))
    ref_i, ref_j = cfg.ref_col - 1, cfg.ref_row - 1
    return OccupancySets(
        cols_left=tuple(c + 1 for c in cols if c < ref_i),
        cols_right=tuple(c + 1 for c in cols if c > ref_i),
        rows_below=tuple(r + 1 for r in rows if r < ref_j),
        rows_above=tuple(r + 1 for r in rows if r > ref_j),
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
    trace rows from np.diff over (rows - 1, objects, 2), summed per object."""
    steps = np.diff(trace.states[:, :, :2], axis=0)
    return np.sqrt((steps**2).sum(axis=2)).sum(axis=0)


def arrival_times_reference(trace, cfg: SurfaceConfig):
    """Oracle of ``engine.arrival_times``: both axes' cell indices at once,
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
