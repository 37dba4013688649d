"""Point-object motion on the oriented surface.

Each object slides on the plane of the cell it occupies under gravity,
viscous friction and the normal reaction; its vertical coordinate is slaved
to the surface.  The planar equations of motion are

    ax = g * cos(pitch) * cos(roll)^2 * sin(pitch) - b * vx
    ay = -g * cos(pitch) * cos(roll) * sin(roll) - b * vy

Integration is semi-implicit Euler (velocity first, then position) with
elastic reflection at the exterior walls.  An object at x lies in column
``floor(x / W)`` (0-based), capped at the last column, and likewise for rows:
a point on a boundary belongs to the higher cell.  ``cell_index`` is that
rule, for the dynamics, the controllers and the metrics alike.

The field is held fixed over the substeps of a control tick, and an object
rarely leaves its cell or reaches a wall within one tick.  So ``advance``
runs a tick as one array recurrence with each object's acceleration taken
from its starting cell, checks afterwards that no object left that cell or
the workspace, and finishes only the objects that did with the exact
per-substep loop, from the first substep at which one failed.  The result
is bit-for-bit the per-substep loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import ActuatorGrid, CellOrientation, SurfaceConfig, check_fields


@dataclass
class ObjectState:
    """Planar position/velocity of one transported object (SI units)."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class PhysicsParams:
    """gravity m/s^2, friction 1/s, actuator time constant s (0 = ideal), step s."""

    gravity: float = 9.81
    friction: float = 0.1
    tau: float = 0.0
    dt: float = 1e-3

    def __post_init__(self):
        check_fields(self)
        if self.gravity <= 0 or self.friction < 0 or self.tau < 0 or self.dt <= 0:
            raise ValueError("require gravity > 0, friction >= 0, tau >= 0, dt > 0")


# Most object-substeps one held-cell recurrence records; advance splits longer
# calls into blocks, each starting from freshly looked-up cells.
_HELD_BLOCK = 1 << 15


def locate_cell(s: ObjectState, cfg: SurfaceConfig) -> tuple[int, int]:
    """1-based (column, row) of the cell containing the object.

    A position exactly on an interior cell boundary belongs to the
    higher-index cell (``cell_index``).
    """
    if not (0.0 <= s.x <= cfg.width and 0.0 <= s.y <= cfg.length):
        raise ValueError(
            f"position ({s.x}, {s.y}) outside workspace "
            f"[0,{cfg.width}]x[0,{cfg.length}]"
        )
    col = int(cell_index(s.x, cfg.W, cfg.n - 1)) + 1
    row = int(cell_index(s.y, cfg.L, cfg.m - 1)) + 1
    return col, row


def cell_index(pos, size, last):
    """0-based index of the cell holding ``pos`` (inside the workspace) on an
    axis of cells of ``size``: ``floor(pos / size)``, capped at the ``last``
    cell.  A position exactly on a cell boundary belongs to the higher cell,
    and the far wall to the last cell.  Arguments broadcast."""
    return np.minimum(np.floor(pos / size).astype(np.intp), last)


def cell_indices(
    x: np.ndarray, y: np.ndarray, cfg: SurfaceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """0-based (column, row) index arrays of the cells holding positions
    (x[k], y[k]) inside the workspace."""
    return cell_index(x, cfg.W, cfg.n - 1), cell_index(y, cfg.L, cfg.m - 1)


def height_at(s: ObjectState, grid: ActuatorGrid, cfg: SurfaceConfig) -> float:
    """Surface height under the object; exact since each cell is planar."""
    col, row = locate_cell(s, cfg)
    z1 = grid.col_heights[col - 1] + grid.row_heights[row - 1]
    z2 = grid.col_heights[col] + grid.row_heights[row - 1]
    z4 = grid.col_heights[col - 1] + grid.row_heights[row]
    fx = (s.x - (col - 1) * cfg.W) / cfg.W
    fy = (s.y - (row - 1) * cfg.L) / cfg.L
    return z1 + fx * (z2 - z1) + fy * (z4 - z1)


def acceleration(
    o: CellOrientation, vx: float, vy: float, p: PhysicsParams
) -> tuple[float, float]:
    """Planar acceleration of an object on a cell with orientation ``o``."""
    ct, st = math.cos(o.pitch), math.sin(o.pitch)
    cp, sp = math.cos(o.roll), math.sin(o.roll)
    ax = p.gravity * ct * cp * cp * st - p.friction * vx
    ay = -p.gravity * ct * cp * sp - p.friction * vy
    return ax, ay


def steady_speed(o: CellOrientation, p: PhysicsParams) -> float:
    """Terminal speed along x on a constant pure-pitch slope: (g/b) Ct Cp St."""
    if p.friction <= 0:
        raise ValueError("no finite terminal speed without friction")
    return (
        p.gravity
        / p.friction
        * math.cos(o.pitch)
        * math.cos(o.roll)
        * math.sin(o.pitch)
    )


def advance(
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    gx_cell: np.ndarray,
    gy_cell: np.ndarray,
    cfg: SurfaceConfig,
    friction: float,
    dt: float,
    substeps: int = 1,
) -> None:
    """Advance object arrays in place by ``substeps`` semi-implicit Euler steps.

    The orientation field is held fixed; each object's acceleration is looked
    up from the cell it currently occupies.  Wall hits reflect the position
    about the wall and negate the normal velocity (no energy loss).

    All substeps of the call run as one held-cell recurrence on (x, y)
    stacked: each object's cell is found once, from its starting position,
    and substep s computes ``v[s] = v[s-1] * keep + g * dt`` and ``p[s] =
    p[s-1] + v[s] * dt`` with that cell's ``g``.  The result is then checked
    in whole-array operations: an object passes if every position it reached
    lies inside the workspace and every position it started a substep from
    lies, by ``cell_index``, in its starting cell; NaN fails both.  For a
    passing object the recurrence is operation for operation what the
    per-substep loop (``_advance_exact``: look the cell up, step, reflect)
    computes, because that loop would gather the same ``g`` on every
    substep and its reflection leaves positions inside the workspace
    untouched; numpy's elementwise IEEE operations do not depend on the
    array's length or on the other elements.  Up to the first substep at which any object fails, every
    object's recurrence is exact, so the failing objects resume from there
    with the per-substep loop, and only they.  Calls longer than
    ``_HELD_BLOCK`` object-substeps run as several such recurrences, each from
    the cells the objects then occupy, as the loop would look them up.
    """
    # Blocks of substeps bound the recorded states to O(objects) memory.
    block = max(1, _HELD_BLOCK // max(x.size, 1))
    for done in range(0, substeps, block):
        _advance_held(x, y, vx, vy, gx_cell, gy_cell, cfg, friction, dt,
                      min(block, substeps - done))


def _advance_held(
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    gx_cell: np.ndarray,
    gy_cell: np.ndarray,
    cfg: SurfaceConfig,
    friction: float,
    dt: float,
    substeps: int,
) -> None:
    """advance for one block of substeps: the checked held-cell recurrence."""
    keep = 1.0 - friction * dt
    size, last, ext = _axes(cfg)
    p = np.empty((substeps + 1, 2, x.size))  # positions, row s after s substeps
    v = np.empty((substeps + 1, 2, x.size))  # velocities, likewise
    p[0] = x, y
    v[0] = vx, vy

    c = cell_index(p[0], size, last)  # each object's starting cell
    a = np.array((gx_cell[c[0], c[1]], gy_cell[c[0], c[1]]))
    a *= dt

    rows = list(v)
    for prev, cur in zip(rows, rows[1:]):
        np.multiply(prev, keep, out=cur)
        cur += a
    np.multiply(v[1:], dt, out=p[1:])
    np.add.accumulate(p, axis=0, out=p)  # p[s] = p[s-1] + v[s] * dt, in order

    # ok[s - 1]: the position after substep s is inside the workspace and,
    # unless it is the last, still in the starting cell.
    ok = (p[1:] >= 0.0) & (p[1:] <= ext)
    ok[:-1] &= cell_index(p[1:-1], size, last) == c
    x[:], y[:] = p[-1]
    vx[:], vy[:] = v[-1]
    if not ok.all():
        ok = ok.all(axis=1)
        redo = np.flatnonzero(~ok.all(axis=0))
        # Before the first substep that fails for any object, every object
        # followed the loop exactly; the failing ones resume from there.
        k = int(np.argmin(ok.all(axis=1)))
        pk, vk = p[k][:, redo], v[k][:, redo]
        _advance_exact(pk, vk, gx_cell, gy_cell, cfg, keep, dt, substeps - k)
        x[redo], y[redo] = pk
        vx[redo], vy[redo] = vk


def _axes(cfg: SurfaceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis (2, 1) columns for stacked (x, y) rows: cell size, last cell
    index and workspace extent."""
    return (
        np.array([[cfg.W], [cfg.L]]),
        np.array([[cfg.n - 1], [cfg.m - 1]]),
        np.array([[cfg.width], [cfg.length]]),
    )


def _advance_exact(
    p: np.ndarray,
    v: np.ndarray,
    gx_cell: np.ndarray,
    gy_cell: np.ndarray,
    cfg: SurfaceConfig,
    keep: float,
    dt: float,
    substeps: int,
) -> None:
    """advance one substep at a time on stacked (2, k) positions and
    velocities, in place: look each cell up, step, reflect at the walls."""
    size, last, ext = _axes(cfg)
    for _ in range(substeps):
        c = cell_index(p, size, last)
        a = np.array((gx_cell[c[0], c[1]], gy_cell[c[0], c[1]]))
        a *= dt
        v *= keep
        v += a
        p += v * dt
        if not ((p >= 0.0) & (p <= ext)).all():
            _reflect(p[0], v[0], cfg.width)
            _reflect(p[1], v[1], cfg.length)


def _reflect(pos: np.ndarray, vel: np.ndarray, hi: float) -> None:
    lo, top = pos.min(), pos.max()
    if lo >= 0.0 and top <= hi:
        return  # nothing reached a wall this substep
    if lo < -hi or top > 2.0 * hi:
        # Overshoots beyond one extent fold in closed form: a position k
        # extents past 0 has bounced |k| times, so odd k mirrors it and
        # reverses its velocity.
        far = (pos < -hi) | (pos > 2.0 * hi)
        k = np.floor(pos[far] / hi)
        r = pos[far] - k * hi
        odd = k % 2 != 0
        pos[far] = np.where(odd, hi - r, r)
        vel[far] = np.where(odd, -vel[far], vel[far])
    below = pos < 0.0
    if below.any():
        pos[below] = -pos[below]
        vel[below] = -vel[below]
    above = pos > hi
    if above.any():
        pos[above] = 2.0 * hi - pos[above]
        vel[above] = -vel[above]


def first_order_lag(z, z_com, tau: float, dt: float):
    """Exact first-order response toward a held command over an interval dt,
    for one height or elementwise for arrays of heights."""
    if tau == 0.0:
        return z_com
    return z + (z_com - z) * (1.0 - math.exp(-dt / tau))


def actuator_response(z: float, z_com: float, p: PhysicsParams) -> float:
    """Actuator height after one ``p.dt`` of first-order motor response."""
    return first_order_lag(z, z_com, p.tau, p.dt)
