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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import ObjectState, cell_indices, locate_cell
from .surface import (
    ActuatorGrid,
    ControlInput,
    FieldError,
    SurfaceConfig,
    check_fields,
    reconstruct_actuator_grid,
)

MODES = ("distributed", "wave", "funnel", "single_cell")


@dataclass(frozen=True)
class SingleCellGains:
    """Feedback gains and saturation bounds for the single-cell law.

    Gains are capped at stroke/(2W) and stroke/(2L) so the four actuator
    heights stay inside [0, stroke].  Saturation bounds default to the cell
    dimensions.
    """

    kx: float
    ky: float
    sat_x: float | None = None
    sat_y: float | None = None

    def __post_init__(self):
        check_fields(self)

    def validate(self, cfg: SurfaceConfig) -> None:
        """Refuse a gain that is not positive or exceeds its cap on ``cfg``."""
        caps = (("kx", self.kx, cfg.stroke / (2 * cfg.W), "stroke/(2W)"),
                ("ky", self.ky, cfg.stroke / (2 * cfg.L), "stroke/(2L)"))
        for name, gain, cap, rule in caps:
            if not 0 < gain <= cap + 1e-12:
                raise FieldError(name, f"must lie in (0, {rule}] = (0, {cap:g}], got {gain}")


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
        if not (0.0 <= self.frac_x <= 1.0 and 0.0 <= self.frac_y <= 1.0):
            raise ValueError("stroke fractions must lie in [0, 1]")
        if abs(self.frac_x + self.frac_y - 1.0) > 1e-9:
            raise ValueError(
                f"stroke fractions must satisfy a + b = 1, got {self.frac_x} + {self.frac_y}"
            )


def occupancy_sets(
    x: np.ndarray, y: np.ndarray, cfg: SurfaceConfig
) -> tuple[list[int], list[int]]:
    """The sorted 0-based columns and rows occupied by objects at positions
    (x[k], y[k]).  Raises locate_cell's ValueError for the first object
    outside the workspace."""
    if x.size and not (
        x.min() >= 0.0 and x.max() <= cfg.width and y.min() >= 0.0 and y.max() <= cfg.length
    ):
        for px, py in zip(x.tolist(), y.tolist()):
            locate_cell(ObjectState(px, py), cfg)  # raises for the first one outside
    ci, cj = cell_indices(x, y, cfg)
    return sorted(set(ci.tolist())), sorted(set(cj.tolist()))


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


def _saturate(value: float, bound: float) -> float:
    return math.copysign(bound, value) if abs(value) > bound else value


def single_cell_feedback(
    e_x: float,
    e_y: float,
    gains: SingleCellGains,
    cfg: SurfaceConfig,
    v_x: float,
    v_y: float,
) -> tuple[float, float, tuple[float, float, float, float]]:
    """Saturated position-velocity feedback for one cell, tilting about its
    midlines.

    dz1 = -kx * sat(e_x + SINGLE_CELL_KD * v_x, sat_x), and likewise dz2
    along y, for an object at error (e_x, e_y) moving at (v_x, v_y).
    Returns (dz1, dz2, (Z1, Z2, Z3, Z4)).  Negative feedback: an error east
    of the target (e_x > 0) lowers the west side so the object slides back.
    The velocity term sits inside the saturation, so |dz1| <= kx * sat_x
    still bounds the heights.  Refuses gains over their cap on ``cfg``.
    """
    gains.validate(cfg)
    return _single_cell_law(e_x, e_y, gains, cfg, v_x, v_y)


def _single_cell_law(
    e_x: float,
    e_y: float,
    gains: SingleCellGains,
    cfg: SurfaceConfig,
    v_x: float,
    v_y: float,
) -> tuple[float, float, tuple[float, float, float, float]]:
    """single_cell_feedback for gains already checked against ``cfg``."""
    sat_x = gains.sat_x if gains.sat_x is not None else cfg.W
    sat_y = gains.sat_y if gains.sat_y is not None else cfg.L
    dz1 = -gains.kx * _saturate(e_x + SINGLE_CELL_KD * v_x, sat_x)
    dz2 = -gains.ky * _saturate(e_y + SINGLE_CELL_KD * v_y, sat_y)
    half = cfg.stroke / 2.0
    z1 = half + dz1 / 2.0 + dz2 / 2.0
    z2 = half - dz1 / 2.0 + dz2 / 2.0
    z3 = half - dz1 / 2.0 - dz2 / 2.0
    z4 = half + dz1 / 2.0 - dz2 / 2.0
    return dz1, dz2, (z1, z2, z3, z4)


def split_fractions(
    x: np.ndarray, y: np.ndarray, params: ControllerParams, cfg: SurfaceConfig
) -> tuple[float, float]:
    """Per-tick stroke split; all-or-nothing when hardware_split is on."""
    if not params.hardware_split:
        return params.frac_x, params.frac_y
    xc = (cfg.ref_col - 0.5) * cfg.W
    yc = (cfg.ref_row - 0.5) * cfg.L
    # Summed object after object, not in np.sum's pairwise order, so that
    # near-ties between the axes resolve as the golden tests pin them.
    err_x = sum(np.abs(x - xc).tolist())
    err_y = sum(np.abs(y - yc).tolist())
    return (1.0, 0.0) if err_x >= err_y else (0.0, 1.0)


def control_input(
    x: np.ndarray,
    y: np.ndarray,
    mode: str,
    params: ControllerParams,
    cfg: SurfaceConfig,
) -> ControlInput:
    """ControlInput commanded by the chosen multi-cell controller this tick."""
    if mode == "funnel":
        # The funnel tilts every line and never reacts to the objects, so the
        # per-tick hardware split does not apply either.
        a, b = params.frac_x, params.frac_y
        cols, rows = range(cfg.n), range(cfg.m)
    elif mode in ("distributed", "wave"):
        a, b = split_fractions(x, y, params, cfg)
        cols, rows = occupancy_sets(x, y, cfg)
    else:
        raise ValueError(f"unknown controller mode {mode!r}")
    wave = mode == "wave"
    return ControlInput(
        axis_drops(cols, cfg.n, cfg.ref_col, a * cfg.stroke, wave),
        axis_drops(rows, cfg.m, cfg.ref_row, b * cfg.stroke, wave),
    )


def command(
    x: np.ndarray,
    y: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    mode: str,
    params: ControllerParams,
    cfg: SurfaceConfig,
) -> tuple[ControlInput, ActuatorGrid]:
    """Commanded (input, grid) pair for this tick, for objects with positions
    (x[k], y[k]) and velocities (vx[k], vy[k]).

    Multi-cell modes compose control_input and grid reconstruction.
    single_cell runs the saturated position-velocity feedback law on a 1x1
    surface, driving the first object to the cell center; its grid tilts
    about the cell midlines instead of leveling the reference actuators.
    It takes the surface, gains and objects as a Scenario accepts them (a
    1x1 surface, gains within their caps, at least one object): Scenario
    refuses the others once, at load, so no tick checks them again.
    """
    if mode == "single_cell":
        gains = params.gains
        if gains is None:
            gains = SingleCellGains(
                kx=cfg.stroke / (2 * cfg.W), ky=cfg.stroke / (2 * cfg.L)
            )
        e_x, e_y = float(x[0]) - cfg.W / 2.0, float(y[0]) - cfg.L / 2.0
        dz1, dz2, _ = _single_cell_law(e_x, e_y, gains, cfg, float(vx[0]), float(vy[0]))
        quarter = cfg.stroke / 4.0
        grid = ActuatorGrid(
            (quarter + dz1 / 2.0, quarter - dz1 / 2.0),
            (quarter + dz2 / 2.0, quarter - dz2 / 2.0),
        )
        return ControlInput((dz1,), (dz2,)), grid
    u = control_input(x, y, mode, params, cfg)
    return u, reconstruct_actuator_grid(u, cfg)
