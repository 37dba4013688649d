"""Surface controllers: distributed allocation, wave, static funnel, single-cell.

The multi-cell controllers map object observations to the n+m height
differences of a ControlInput by one rule, applied to each axis: every
tilted line on one side of the reference line drops that side's share of
the stroke (frac_x or frac_y times the stroke) divided by the number of
tilted lines, toward the reference.  The funnel tilts every line,
distributed allocation every occupied line, and the wave only the
outermost occupied line on each side.  The reference cell is always
leveled to the lowest potential.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .surface import (
    ActuatorGrid,
    ControlInput,
    FieldError,
    SurfaceConfig,
    check_fields,
    reconstruct_actuator_grid,
    require,
)

MODES = ("distributed", "wave", "funnel", "single_cell")


@dataclass(frozen=True)
class SingleCellGains:
    """Feedback gains for the single-cell law, which saturates at the cell
    size W and L.

    Gains are capped at stroke/(2W) and stroke/(2L) so the four actuator
    heights stay inside [0, stroke].
    """

    kx: float
    ky: float

    def __post_init__(self):
        check_fields(self)

    def validate(self, cfg: SurfaceConfig) -> None:
        """Refuse a gain that is not positive or exceeds its cap on ``cfg``."""
        caps = zip(("kx", "ky"), (self.kx, self.ky), _gain_caps(cfg), ("W", "L"))
        for name, gain, cap, size in caps:
            if not 0 < gain <= cap * (1 + 1e-12):  # slack relative to a cap of any size
                raise FieldError(
                    name, f"must lie in (0, stroke/(2{size})] = (0, {cap:g}], got {gain}"
                )


@dataclass(frozen=True)
class ControllerParams:
    """Mode-independent controller knobs carried by a scenario."""

    frac_x: float = 0.5
    frac_y: float = 0.5
    gains: SingleCellGains | None = None
    # Hardware-style tuning: put the whole stroke on whichever axis still
    # carries more error, per tick, instead of the fixed split.
    hardware_split: bool = False

    def __post_init__(self):
        check_fields(self)
        require(self, (
            ("frac_x", 0.0 <= self.frac_x <= 1.0, "in [0, 1], as stroke fractions are"),
            ("frac_y", 0.0 <= self.frac_y <= 1.0, "in [0, 1], as stroke fractions are"),
            ("frac_x", abs(self.frac_x + self.frac_y - 1.0) <= 1e-9,
             f"such that the stroke fractions a + b = 1 (b is {self.frac_y})"),
        ))


def axis_drops(
    occupied: Sequence[int], count: int, ref: int, share: float, outermost: bool = False
) -> tuple[float, ...]:
    """The ``count`` drops of one axis whose 1-based reference line is ``ref``.

    On each side of the reference, the lines of ``occupied`` (sorted 0-based
    indices) tilt, or only the outermost one if ``outermost``; each tilted
    line drops ``share / k`` toward the reference, k being the number of
    tilted lines on its side: positive below the reference, negative above.
    """
    drops = [0.0] * count
    below = [i for i in occupied if i < ref - 1]
    above = [i for i in occupied if i >= ref]
    if outermost:
        below, above = below[:1], above[-1:]
    for side, signed in ((below, share), (above, -share)):
        for i in side:
            drops[i] = signed / len(side)
    return tuple(drops)


# Velocity weight (seconds) inside the single-cell law's saturated error, so
# the law damps the object even on a frictionless cell.  For kx = stroke/(2W)
# on a 2 m cell it gives a damping ratio of about 0.55 at g = 9.81.
SINGLE_CELL_KD = 1.0


def _gain_caps(cfg: SurfaceConfig) -> tuple[float, float]:
    """The caps of the single-cell gains kx and ky on ``cfg``."""
    return cfg.stroke / (2 * cfg.W), cfg.stroke / (2 * cfg.L)


def _single_cell_law(
    e_x: float, e_y: float, v_x: float, v_y: float,
    gains: SingleCellGains | None, cfg: SurfaceConfig,
) -> tuple[ControlInput, ActuatorGrid]:
    """(input, grid) of the single-cell law for ``gains`` already checked
    against the surface ``cfg``; no gains stand for the gains at their caps.

    dz1 = -kx * sat(e_x + SINGLE_CELL_KD * v_x, W), and likewise dz2 along y
    with L, for an object at error (e_x, e_y) moving at (v_x, v_y).  The
    velocity term sits inside the saturation, so |dz1| <= kx * W <=
    stroke / 2, and the grid, tilting about the cell midlines, stays inside
    [0, stroke].
    """
    kx, ky = _gain_caps(cfg) if gains is None else (gains.kx, gains.ky)
    dz = []
    for k, e, v, bound in ((kx, e_x, v_x, cfg.W), (ky, e_y, v_y, cfg.L)):
        err = e + SINGLE_CELL_KD * v
        dz.append(-k * (math.copysign(bound, err) if abs(err) > bound else err))
    quarter = cfg.stroke / 4.0
    grid = ActuatorGrid(*((quarter + d / 2.0, quarter - d / 2.0) for d in dz))
    return ControlInput((dz[0],), (dz[1],)), grid


def single_cell_feedback(
    e_x: float, e_y: float, gains: SingleCellGains, cfg: SurfaceConfig, v_x: float, v_y: float
) -> tuple[float, float, tuple[float, float, float, float]]:
    """Saturated position-velocity feedback for one cell, tilting about its
    midlines: the single-cell law for an object at error (e_x, e_y) moving
    at (v_x, v_y).

    Returns (dz1, dz2, (Z1, Z2, Z3, Z4)), the corners of the grid ``command``
    gives.  Negative feedback: an error east of the target (e_x > 0) lowers
    the west side so the object slides back.  Refuses gains over their cap
    on ``cfg``.
    """
    gains.validate(cfg)
    u, grid = _single_cell_law(e_x, e_y, v_x, v_y, gains, cfg)
    (z1, z4), (z2, z3) = grid.heights().tolist()
    return u.dz_col[0], u.dz_row[0], (z1, z2, z3, z4)


def split_fractions(
    x: np.ndarray, y: np.ndarray, params: ControllerParams, cfg: SurfaceConfig
) -> tuple[float, float]:
    """Per-tick stroke split; all-or-nothing when hardware_split is on."""
    if not params.hardware_split:
        return params.frac_x, params.frac_y
    xc = (cfg.ref_col - 0.5) * cfg.W
    yc = (cfg.ref_row - 0.5) * cfg.L
    # A left fold from 0.0, object after object: neither np.sum's pairwise
    # order nor the compensated sum() of Python >= 3.12, so that near-ties
    # between the axes resolve as the golden tests pin them.
    err_x = reduce(operator.add, np.abs(x - xc).tolist(), 0.0)
    err_y = reduce(operator.add, np.abs(y - yc).tolist(), 0.0)
    return (1.0, 0.0) if err_x >= err_y else (0.0, 1.0)


def command(
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    mode: str,
    params: ControllerParams,
    cfg: SurfaceConfig,
    cells: np.ndarray,
) -> tuple[ControlInput, ActuatorGrid]:
    """Commanded (input, grid) pair for this tick, for objects with positions
    (x[k], y[k]) and velocities (vx[k], vy[k]).

    The multi-cell modes command their rule's drops and the grid
    reconstructed from them.  single_cell runs the single-cell law on a 1x1
    surface, driving the first object to the cell center; its grid tilts
    about the cell midlines instead of leveling the reference actuators.  It
    takes the surface, gains and objects as a Scenario accepts them, so no
    tick checks them again.

    distributed and wave tilt the occupied lines, the sorted distinct
    ``cells[0]`` and ``cells[1]`` of the (2, N) cells ``dynamics.cell_indices``
    gives for objects inside the workspace: ``engine.run`` looks them up
    before its first tick, and each ``dynamics.advance`` returns the next.
    """
    if mode == "single_cell":
        e_x, e_y = float(x[0]) - cfg.W / 2.0, float(y[0]) - cfg.L / 2.0
        return _single_cell_law(e_x, e_y, float(vx[0]), float(vy[0]), params.gains, cfg)
    if mode == "funnel":
        # The funnel tilts every line and never reacts to the objects, so the
        # per-tick hardware split does not apply either.
        a, b = params.frac_x, params.frac_y
        cols, rows = range(cfg.n), range(cfg.m)
    elif mode in ("distributed", "wave"):
        a, b = split_fractions(x, y, params, cfg)
        cols, rows = sorted(set(cells[0].tolist())), sorted(set(cells[1].tolist()))
    else:
        raise ValueError(f"unknown controller mode {mode!r}")
    wave = mode == "wave"
    u = ControlInput(
        axis_drops(cols, cfg.n, cfg.ref_col, a * cfg.stroke, wave),
        axis_drops(rows, cfg.m, cfg.ref_row, b * cfg.stroke, wave),
    )
    return u, reconstruct_actuator_grid(u, cfg)
