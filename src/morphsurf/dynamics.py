"""Point-object motion on the oriented surface.

Each object slides on the plane of the cell it occupies under gravity,
viscous friction and the normal reaction; its vertical coordinate is slaved
to the surface.  The planar equations of motion are

    ax = g * cos(pitch) * cos(roll)^2 * sin(pitch) - b * vx
    ay = -g * cos(pitch) * cos(roll) * sin(roll) - b * vy

Integration is semi-implicit Euler (velocity first, then position) with
elastic reflection at the exterior walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surface import ActuatorGrid, CellOrientation, SurfaceConfig


@dataclass
class ObjectState:
    """Planar position/velocity of one transported object (SI units)."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    mass: float = 1.0


@dataclass(frozen=True)
class PhysicsParams:
    """gravity m/s^2, friction 1/s, actuator time constant s (0 = ideal), step s."""

    gravity: float = 9.81
    friction: float = 0.1
    tau: float = 0.0
    dt: float = 1e-3

    def __post_init__(self):
        if self.gravity <= 0 or self.friction < 0 or self.tau < 0 or self.dt <= 0:
            raise ValueError("require gravity > 0, friction >= 0, tau >= 0, dt > 0")


def locate_cell(s: ObjectState, cfg: SurfaceConfig) -> tuple[int, int]:
    """1-based (column, row) of the cell containing the object.

    A position exactly on an interior cell boundary belongs to the
    higher-index cell.
    """
    if not (0.0 <= s.x <= cfg.width and 0.0 <= s.y <= cfg.length):
        raise ValueError(
            f"position ({s.x}, {s.y}) outside workspace "
            f"[0,{cfg.width}]x[0,{cfg.length}]"
        )
    col = min(cfg.n, int(math.floor(s.x / cfg.W)) + 1)
    row = min(cfg.m, int(math.floor(s.y / cfg.L)) + 1)
    return col, row


def cell_indices(
    x: np.ndarray, y: np.ndarray, cfg: SurfaceConfig
) -> tuple[np.ndarray, np.ndarray]:
    """0-based (column, row) index arrays of the cells holding positions
    (x[k], y[k]) inside the workspace: locate_cell's rule, minus one."""
    ci = np.minimum(np.floor(x / cfg.W).astype(int), cfg.n - 1)
    cj = np.minimum(np.floor(y / cfg.L).astype(int), cfg.m - 1)
    return ci, cj


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
    """
    n, m = cfg.n, cfg.m
    xmax, ymax = cfg.width, cfg.length
    inv_w, inv_l = 1.0 / cfg.W, 1.0 / cfg.L
    keep = 1.0 - friction * dt
    hi_i, hi_j = n - 1, m - 1
    for _ in range(substeps):
        ci = (x * inv_w).astype(np.intp)
        np.minimum(ci, hi_i, out=ci)
        cj = (y * inv_l).astype(np.intp)
        np.minimum(cj, hi_j, out=cj)
        vx *= keep
        vx += gx_cell[ci, cj] * dt
        vy *= keep
        vy += gy_cell[ci, cj] * dt
        x += vx * dt
        y += vy * dt
        _reflect(x, vx, xmax)
        _reflect(y, vy, ymax)


def _reflect(pos: np.ndarray, vel: np.ndarray, hi: float) -> None:
    if pos.size == 0:
        return
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
