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
from its starting cell, and checks afterwards that no object left that cell
or the workspace.  At the first substep where one did, it reflects that
substep and restarts the recurrence from there, with the cells looked up
again.  The result is bit-for-bit the per-substep loop's.

The check looks up the cell of every row it tests, so a call that ends on
a passing recurrence already holds the cells of the positions it leaves.
``advance`` returns them, and ``engine.run`` hands them to the next tick's
controller, settle rule and ``advance``: a run looks each object's cell up
once per tick, in that check, and a quiet tick makes no other lookup.
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
# several, each starting from freshly looked-up cells.
_HELD_BLOCK = 1 << 15
# A recurrence after an event at row r computes at most max(2r, _RESTART_ROWS)
# rows, so the rows of a call stay linear in its substeps whatever its events.
_RESTART_ROWS = 16


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
    cells: np.ndarray | None = None,
) -> np.ndarray:
    """Advance object arrays in place by ``substeps`` semi-implicit Euler
    steps and return the (2, N) column and row indices of the cells they
    are left in, as ``cell_indices`` gives them.

    The orientation field is held fixed; each object's acceleration is looked
    up from the cell it currently occupies.  Wall hits reflect the position
    about the wall and negate the normal velocity (no energy loss).
    ``cells``, where given, are the cells the objects start in, such as the
    previous call returned.

    The substeps run as a loop of held-cell recurrences on (x, y) stacked.
    Each recurrence takes every object's starting cell, gathers that cell's
    ``g`` and computes, for substep s, ``v[s] = v[s-1] * keep + g * dt`` and
    ``p[s] = p[s-1] + v[s] * dt``.  It is then checked in whole-array
    operations, with one ``cell_index`` call over all its rows: row s passes
    if every position in it lies inside the workspace and, unless it is the
    recurrence's last row, in its object's starting cell; NaN fails.  The
    first recurrence starts from ``cells`` or looks them up; one that
    follows a passing recurrence starts from its last row's cells, and one
    that follows a reflected row looks them up.  Before the first failing row
    r, every object computed what the per-substep loop (look the cell up,
    step, reflect) computes, because that loop would gather the same ``g``
    and its reflection leaves positions inside the workspace untouched;
    numpy's elementwise IEEE operations do not depend on the other elements.
    So row r is reflected, as the loop reflects it, and the next recurrence
    starts from there with the cells looked up again, computing at most
    ``max(2r, _RESTART_ROWS)`` rows.  A quiet call runs one recurrence and
    no reflection.  A recurrence records at most ``_HELD_BLOCK``
    object-substeps; a longer call continues from the last row as from an
    event.  The result is bit-for-bit the per-substep loop's.  The cells
    returned are the last check's last row, or are looked up once more if
    the call ended on a reflected row, or ran no substep without ``cells``.
    """
    keep = 1.0 - friction * dt
    size, last, ext = cfg.axes
    block = min(substeps, max(1, _HELD_BLOCK // max(x.size, 1)))
    p = np.empty((block + 1, 2, x.size))  # positions, row s after s substeps
    v = np.empty((block + 1, 2, x.size))  # velocities, likewise
    a = np.empty((2, x.size))  # each object's acceleration times dt
    p[0] = x, y
    v[0] = vx, vy
    c = cells  # the cells of p[0], or None until they are looked up
    r, k = 0, block  # the row the last recurrence stopped at, and its rows
    while substeps:
        if r:
            p[0], v[0] = p[r], v[r]
            k = max(2 * r, _RESTART_ROWS)
        k = min(substeps, block, k)
        pk, vk = p[:k + 1], v[:k + 1]
        if c is None:
            c = cell_index(pk[0], size, last)
        flat = c[0] * cfg.m + c[1]
        gx_cell.take(flat, out=a[0])
        gy_cell.take(flat, out=a[1])
        a *= dt
        rows = list(vk)
        for prev, cur in zip(rows, rows[1:]):
            np.multiply(prev, keep, out=cur)
            cur += a
        np.multiply(vk[1:], dt, out=pk[1:])
        np.add.accumulate(pk, axis=0, out=pk)  # p[s] = p[s-1] + v[s] * dt, in order

        # ok[s - 1]: row s is inside the workspace and, unless it is the
        # last, still in the starting cell.
        row_cells = cell_index(pk[1:], size, last)
        ok = (pk[1:] >= 0.0) & (pk[1:] <= ext)
        ok[:-1] &= row_cells[:-1] == c
        if ok.all():
            r, c = k, row_cells[-1]
        else:
            r = int(np.argmin(ok.all(axis=(1, 2)))) + 1
            _reflect(p[r, 0], v[r, 0], cfg.width)
            _reflect(p[r, 1], v[r, 1], cfg.length)
            c = None
        substeps -= r
    x[:], y[:] = p[r]
    vx[:], vy[:] = v[r]
    return cell_index(p[r], size, last) if c is None else c


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

