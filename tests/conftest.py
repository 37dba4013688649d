"""Shared generators and oracles for randomized kinematics/dynamics tests."""

import math

import numpy as np

from morphsurf import ControlInput, ObjectState, SurfaceConfig


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
    return ControlInput(tuple(dz_col), tuple(dz_row), a, b)


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
        ObjectState(float(x[k]), float(y[k]), float(vx[k]), float(vy[k]), o.mass)
        for k, o in enumerate(objects)
    ]


def advance_reference(x, y, vx, vy, gx_cell, gy_cell, cfg, friction, dt, substeps=1):
    """Oracle of ``dynamics.advance``: one substep at a time, each object's
    cell looked up again before every substep, then the semi-implicit Euler
    step and the reflection at the walls, on x and y separately."""
    inv_w, inv_l = 1.0 / cfg.W, 1.0 / cfg.L
    keep = 1.0 - friction * dt
    for _ in range(substeps):
        ci = (x * inv_w).astype(np.intp)
        np.minimum(ci, cfg.n - 1, out=ci)
        cj = (y * inv_l).astype(np.intp)
        np.minimum(cj, cfg.m - 1, out=cj)
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
