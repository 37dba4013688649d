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

``advance`` takes the cells its objects start in and returns the cells it
leaves them in, so ``engine.run`` looks each object's cell up once before
its first tick and hands each tick's cells to the next tick's controller,
settle rule and ``advance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import FIELD_LIMIT, FieldError, SurfaceConfig, check_fields, require


@dataclass(frozen=True)
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
        require(self, (
            ("gravity", 0 < self.gravity <= FIELD_LIMIT, "in (0, 2**500]"),
            ("friction", self.friction >= 0, ">= 0"),
            ("tau", self.tau >= 0, ">= 0"),
            ("dt", self.dt > 0, "positive"),
        ))
        if self.friction * self.dt > 1.0:  # each step's factor 1 - b dt turns negative
            raise FieldError(
                "friction", f"must be at most 1 / dt = {1.0 / self.dt:g}, got {self.friction}"
            )


# Most object-substeps one held-cell recurrence records; a longer call runs
# several, each starting from the last row of the one before.
_HELD_BLOCK = 1 << 15
# Rows of at least this many values are summed into positions row by row,
# narrower ones by one np.add.accumulate; both add in the same order.  Over
# the 11 rows of a 10-substep tick on a shared virtualised Xeon, row by row
# takes about 5.6 us at 200 objects, where one np.add.accumulate takes 16.5,
# and 5.3 us at 20, where it takes 2.2.
_ROW_SUM_WIDTH = 128


def cell_index(pos, size, last):
    """0-based index of the cell holding ``pos`` (inside the workspace) on an
    axis of cells of ``size``: ``floor(pos / size)``, capped at the ``last``
    cell.  A position exactly on a cell boundary belongs to the higher cell,
    and the far wall to the last cell.  Arguments broadcast."""
    return np.minimum(np.floor(pos / size).astype(np.intp), last)


def cell_indices(x: np.ndarray, y: np.ndarray, cfg: SurfaceConfig) -> np.ndarray:
    """The (2, *shape) 0-based column and row indices of the cells holding
    positions (x, y) inside the workspace: the cells ``advance``,
    ``control.command`` and the engine's settle rule take."""
    return np.stack((cell_index(x, cfg.W, cfg.n - 1), cell_index(y, cfg.L, cfg.m - 1)))


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
    substeps: int,
    cells: np.ndarray,
) -> np.ndarray:
    """Advance object arrays in place by ``substeps`` semi-implicit Euler
    steps from the (2, N) ``cells`` they start in, as ``cell_indices`` gives
    them or the previous call returned, and return the cells they are left
    in likewise.

    The orientation field is held fixed; each object's acceleration is looked
    up from the cell it currently occupies.  Wall hits reflect the position
    about the wall and negate the normal velocity (no energy loss).

    The substeps run as a loop of held-cell recurrences on (x, y) stacked.
    Each recurrence takes every object's starting cell, gathers that cell's
    ``g`` and computes, for substep s, ``v[s] = v[s-1] * keep + g * dt`` and
    ``p[s] = p[s-1] + v[s] * dt``, the positions by one ``np.add.accumulate``
    or, on rows of at least ``_ROW_SUM_WIDTH`` values, row by row (the same
    order).  It is then checked in whole-array operations, with one
    ``cell_index`` call over all its rows: an object's row s passes if it
    lies inside the workspace and, unless it is the recurrence's last row,
    in the object's starting cell; NaN fails.  Before an object's first
    failing row r, it computed what the per-substep loop (look the cell up,
    step, fold at the walls) computes, because that loop would gather the
    same ``g`` and its fold leaves positions inside the workspace untouched;
    numpy's elementwise IEEE operations do not depend on the other elements.
    So every object that passed keeps the recurrence's last row, and a
    failing object is right up to its row r before the fold.

    ``_finish`` then completes each failing object from its row r to the
    recurrence's last row one substep at a time in Python floats: fold, then
    look the cell up, step and fold.  A call's scalar substeps are at most
    its objects times its substeps.  A recurrence records at most
    ``_HELD_BLOCK`` object-substeps; a longer call continues from its last
    row.  The result is bit-for-bit the per-substep loop's.  The cells
    returned are those of the last recurrence's last row, from its check or
    from ``_finish``, or ``cells`` when the call ran no substep.
    """
    keep = 1.0 - friction * dt
    size, last, ext = cfg.axes
    block = min(substeps, max(1, _HELD_BLOCK // max(x.size, 1)))
    p = np.empty((block + 1, 2, x.size))  # positions, row s after s substeps
    v = np.empty((block + 1, 2, x.size))  # velocities, likewise
    a = np.empty((2, x.size))  # each object's acceleration times dt
    p[0, 0], p[0, 1] = x, y
    v[0, 0], v[0, 1] = vx, vy
    k = 0  # the rows of the last recurrence
    while substeps:
        if k:
            p[0], v[0] = p[k], v[k]
        k = min(substeps, block)
        pk, vk = p[:k + 1], v[:k + 1]
        flat = cells[0] * cfg.m + cells[1]  # the cells of p[0]
        gx_cell.take(flat, out=a[0])
        gy_cell.take(flat, out=a[1])
        a *= dt
        rows = list(vk)
        for prev, cur in zip(rows, rows[1:]):
            np.multiply(prev, keep, out=cur)
            cur += a
        np.multiply(vk[1:], dt, out=pk[1:])
        if 2 * x.size < _ROW_SUM_WIDTH:
            np.add.accumulate(pk, axis=0, out=pk)  # p[s] = p[s-1] + v[s] * dt, in order
        else:
            rows = list(pk)
            for prev, cur in zip(rows, rows[1:]):
                cur += prev

        # ok[s - 1]: row s is inside the workspace and, unless it is the
        # last, still in the starting cell.
        row_cells = cell_index(pk[1:], size, last)
        ok = (pk[1:] >= 0.0) & (pk[1:] <= ext)
        ok[:-1] &= row_cells[:-1] == cells
        cells = row_cells[-1]
        if not ok.all():
            bad = ~ok.all(axis=1)  # (rows, N)
            failed = np.flatnonzero(bad.any(axis=0))
            first = bad[:, failed].argmax(axis=0) + 1  # each one's first failing row
            for i, s in zip(failed.tolist(), first.tolist()):
                p[k, :, i], v[k, :, i], cells[:, i] = _finish(
                    *p[s, :, i].tolist(), *v[s, :, i].tolist(), k - s,
                    gx_cell, gy_cell, cfg, keep, dt)
        substeps -= k
    x[:], y[:] = p[k, 0], p[k, 1]
    vx[:], vy[:] = v[k, 0], v[k, 1]
    return cells


def _finish(
    x: float, y: float, vx: float, vy: float, steps: int, gx_cell: np.ndarray,
    gy_cell: np.ndarray, cfg: SurfaceConfig, keep: float, dt: float,
) -> tuple[tuple[float, float], tuple[float, float], tuple[int, int]]:
    """One object's state (x, y, vx, vy) at a row where it left its held
    cell or the workspace, folded at the walls and taken ``steps`` substeps
    further as the per-substep loop takes it, in Python floats: look the cell
    up, step, fold.  Returns its ((x, y), (vx, vy), (column, row)).

    A recurrence costs about 30 us of numpy calls even over one object and a
    scalar substep here under 1 us, so an object that fails a recurrence is
    finished alone, whatever it owes."""
    width, length, last_col, last_row = cfg.width, cfg.length, cfg.n - 1, cfg.m - 1
    x, vx = _fold(x, vx, width)
    y, vy = _fold(y, vy, length)
    for _ in range(steps):
        i, j = min(math.floor(x / cfg.W), last_col), min(math.floor(y / cfg.L), last_row)
        vx = vx * keep + gx_cell.item(i, j) * dt
        vy = vy * keep + gy_cell.item(i, j) * dt
        x, vx = _fold(x + vx * dt, vx, width)
        y, vy = _fold(y + vy * dt, vy, length)
    return (x, y), (vx, vy), (min(math.floor(x / cfg.W), last_col), min(math.floor(y / cfg.L), last_row))


def _fold(pos: float, vel: float, hi: float) -> tuple[float, float]:
    """One coordinate and its velocity reflected elastically into [0, hi].
    An overshoot beyond one extent folds in closed form: a position k
    extents past 0 has bounced |k| times, so odd k mirrors it and reverses
    its velocity."""
    if pos < -hi or pos > 2.0 * hi:
        k = math.floor(pos / hi)
        pos -= k * hi
        if k % 2:
            pos, vel = hi - pos, -vel
    if pos < 0.0:
        return -pos, -vel
    if pos > hi:
        return 2.0 * hi - pos, -vel
    return pos, vel


def first_order_lag(z, z_com, tau: float, dt: float):
    """Exact first-order response toward a held command over an interval dt,
    for one height or elementwise for arrays of heights."""
    if tau == 0.0:
        return z_com
    return z + (z_com - z) * (1.0 - math.exp(-dt / tau))

