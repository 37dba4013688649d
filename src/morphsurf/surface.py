"""Actuator-grid geometry: cell orientations, inter-cell constraints, reconstruction.

A surface is an n x m grid of planar cells whose corners are the tips of
(n+1) x (m+1) vertical actuators.  Cell columns advance along +x (spacing W),
cell rows along +y (spacing L).  Corner 1 of a cell is its south-west
actuator, numbering continues counter-clockwise, so planarity of a cell reads

    Z3 = -Z1 + Z2 + Z4.

Feasible grids are stored separably: the height of actuator (i, j) is
``col_heights[i] + row_heights[j]``, which makes planarity and both
inter-cell orientation constraints hold by construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from itertools import accumulate

import numpy as np

# Tolerances for grids we construct ourselves (raw measured grids get
# caller-supplied tolerances through validate_grid).
PLANARITY_TOL = 1e-9  # meters
ANGLE_TOL = 1e-9  # radians

# Largest cell slope (stroke / W or stroke / L) and largest gravity the
# gravity field takes.  It squares the slopes and multiplies them by the
# gravity; below 2**500 neither product nears the float range (2**1024).
FIELD_LIMIT = 2.0**500


class InfeasibleControlError(ValueError):
    """Requested height differences push an actuator outside [0, stroke]."""


class FieldError(ValueError):
    """A field holds a value its annotation does not admit."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name} {reason}")
        self.field, self.reason = name, reason


# The field annotations check_fields enforces: the types a value may have
# (bools only for "bool"), their conversion, and the wording of a refusal.
_REAL = (int, float, np.integer, np.floating)
_KINDS = {
    "float": (_REAL, float, "a finite number"),
    "int": ((int, np.integer), int, "an integer"),
    "bool": ((bool, np.bool_), bool, "true or false"),
    "str": (str, str, "a string"),
}


def checked(value, kind: str, name: str):
    """``value`` converted to ``kind``, a key of ``_KINDS``.  A value of
    another kind raises a FieldError naming ``name``: NaN or an infinity, a
    bool in a number field, and a non-integral number (2.0 included) in an
    integer field."""
    types, convert, wording = _KINDS[kind]
    if isinstance(value, types) and isinstance(value, (bool, np.bool_)) == (kind == "bool"):
        try:
            if convert is not float or math.isfinite(value):
                return convert(value)
        except OverflowError:  # an integer beyond any float
            pass
    raise FieldError(name, f"must be {wording}, got {value!r}")


def check_fields(obj) -> None:
    """Store each field of the dataclass ``obj`` annotated with a kind of
    ``_KINDS`` through ``checked``.  The annotations are read as strings."""
    for name, kind in _checked_fields(type(obj)):
        object.__setattr__(obj, name, checked(getattr(obj, name), kind, name))


def require(obj, rules) -> None:
    """Raise a FieldError for the first ``(field, holds, rule)`` of ``rules``
    that does not hold on ``obj``: "<field> must be <rule>, got <value>"."""
    for name, holds, rule in rules:
        if not holds:
            raise FieldError(name, f"must be {rule}, got {getattr(obj, name)!r}")


@functools.cache
def _checked_fields(cls) -> tuple[tuple[str, str], ...]:
    return tuple((f.name, f.type) for f in fields(cls) if f.type in _KINDS)


@dataclass(frozen=True)
class SurfaceConfig:
    """Grid dimensions, cell metrics and the reference (target) cell.

    n, m        -- number of cell columns / rows (>= 1)
    W, L        -- cell width (x) and length (y) in meters
    stroke      -- actuator stroke in meters; heights live in [0, stroke]
    ref_col/row -- 1-based indices of the reference cell
    """

    n: int
    m: int
    W: float
    L: float
    stroke: float
    ref_col: int
    ref_row: int

    def __post_init__(self):
        check_fields(self)
        require(self, (
            ("n", self.n >= 1, "at least 1"),
            ("m", self.m >= 1, "at least 1"),
            ("stroke", self.stroke > 0, "positive"),
            ("W", self.W > 0 and self.stroke / self.W <= FIELD_LIMIT, "at least stroke * 2**-500"),
            ("L", self.L > 0 and self.stroke / self.L <= FIELD_LIMIT, "at least stroke * 2**-500"),
            ("ref_col", 1 <= self.ref_col <= self.n, f"a column of the {self.n}x{self.m} grid"),
            ("ref_row", 1 <= self.ref_row <= self.m, f"a row of the {self.n}x{self.m} grid"),
        ))

    @property
    def width(self) -> float:
        """Workspace extent along x."""
        return self.n * self.W

    @property
    def length(self) -> float:
        """Workspace extent along y."""
        return self.m * self.L

    @functools.cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cell size, last 0-based cell, workspace extent) of the x and y
        axes, each a read-only (2, 1) array, made once per config for the
        whole-array cell lookups of the dynamics."""
        arrays = (np.array([[self.W], [self.L]]), np.array([[self.n - 1], [self.m - 1]]),
                  np.array([[self.width], [self.length]]))
        for a in arrays:
            a.flags.writeable = False
        return arrays


@dataclass(frozen=True)
class ControlInput:
    """The n+m independent height differences of a surface.

    dz_col[I-1] is the drop across any cell of column I along +x
    (south-west corner minus south-east corner); dz_row[J-1] likewise along
    +y.
    """

    dz_col: tuple[float, ...]
    dz_row: tuple[float, ...]


@dataclass(frozen=True)
class ActuatorGrid:
    """Separable actuator heights: height(i, j) = col_heights[i] + row_heights[j]."""

    col_heights: tuple[float, ...]  # n+1 entries
    row_heights: tuple[float, ...]  # m+1 entries

    def heights(self) -> np.ndarray:
        """Full (n+1) x (m+1) height matrix, indexed [column, row]."""
        return np.add.outer(np.asarray(self.col_heights), np.asarray(self.row_heights))


@dataclass(frozen=True)
class CellOrientation:
    """Pitch (about y) and roll (about x) of one cell, radians, open (-pi/2, pi/2).

    Yaw is identically zero for these cells and is not stored.
    """

    pitch: float
    roll: float


@dataclass
class ConstraintReport:
    """Per-constraint violation lists; all empty iff the grid is feasible.

    planarity: [((I, J), residual_m)]      cells whose corners leave a plane
    pitch:     [(I, spread_rad)]           columns whose cells disagree in pitch
    roll:      [((I, J), residual_rad)]    cells breaking the adjacent-roll relation
    bounds:    [((i, j), height_m)]        actuators outside [0, stroke]
    """

    planarity: list = field(default_factory=list)
    pitch: list = field(default_factory=list)
    roll: list = field(default_factory=list)
    bounds: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.planarity or self.pitch or self.roll or self.bounds)

    def summary(self) -> str:
        if self.ok:
            return "grid feasible: no violations"
        lines = []
        for (cell, res) in self.planarity:
            lines.append(f"planarity: cell {cell} residual {res:.3e} m")
        for (col, spread) in self.pitch:
            lines.append(f"pitch: column {col} spread {spread:.3e} rad")
        for (cell, res) in self.roll:
            lines.append(f"roll relation: cell {cell} residual {res:.3e} rad")
        for (act, h) in self.bounds:
            lines.append(f"bounds: actuator {act} height {h:.6g} m")
        return "\n".join(lines)


def planar_completion(z1: float, z2: float, z4: float) -> float:
    """Height of corner 3 forced by the other three corners of a planar cell."""
    return -z1 + z2 + z4


def cell_orientation(dz1, dz2, cfg: SurfaceConfig) -> CellOrientation:
    """Orientation of a cell from its two height differences, scalars or
    arrays of cells alike.

    dz1 = Z1 - Z2 (drop along +x), dz2 = Z1 - Z4 (drop along +y).  A positive
    dz1 tilts the cell so objects accelerate toward +x; a positive dz2 gives
    a negative roll and acceleration toward +y.
    """
    pitch = np.arctan2(dz1, cfg.W)
    roll = np.arctan2(-np.cos(pitch) * dz2, cfg.L)
    return CellOrientation(pitch, roll)


def reconstruct_actuator_grid(u: ControlInput, cfg: SurfaceConfig) -> ActuatorGrid:
    """Actuator heights realizing the requested height differences.

    The reference cell's actuators are leveled to zero and the remaining
    column/row components are running sums of the drops outward, so
    dz_col[I] = col_heights[I] - col_heights[I+1] for every column (and the
    row analogue).  Raises InfeasibleControlError if any height would leave
    [0, stroke] or is NaN.
    """
    if len(u.dz_col) != cfg.n or len(u.dz_row) != cfg.m:
        raise ValueError(
            f"control input ({len(u.dz_col)},{len(u.dz_row)}) does not match "
            f"grid ({cfg.n},{cfg.m})"
        )
    col = _component_heights(u.dz_col, cfg.ref_col)
    row = _component_heights(u.dz_row, cfg.ref_row)

    tol = 1e-9 * max(1.0, cfg.stroke)
    lo = min(col) + min(row)
    hi = max(col) + max(row)
    # min and max skip a NaN that is not first; the sums of heights do not
    if not (-tol <= lo and hi <= cfg.stroke + tol) or math.isnan(sum(col) + sum(row)):
        h = np.add.outer(col, row)
        # the lowest actuator if one is too low, else the highest; a NaN first
        i, j = np.unravel_index(np.argmin(h) if lo < -tol else np.argmax(h), h.shape)
        raise InfeasibleControlError(
            f"actuator ({i + 1},{j + 1}) height {h[i, j]:.6g} m outside [0, {cfg.stroke}]"
        )
    return ActuatorGrid(tuple(col), tuple(row))


def _component_heights(dz: tuple[float, ...], ref: int) -> list[float]:
    """Height components of one axis (1-based ref index): line ref+1 is minus
    the empty sum, -0.0, and outward from it each line adds its drop to a
    running sum.

    Each sum starts from 0.0, as numpy's per-slice sums do, so a sum of -0.0
    drops is +0.0.  A height may differ from numpy's sum of its slice in the
    last bit where the sum covers 8 or more drops, which numpy adds
    pairwise, or where unequal drops below the reference line are added in
    the other order (the controllers command equal drops on each side).
    """
    below = list(accumulate(dz[ref - 1::-1], initial=0.0))  # lines ref+1, ref, ..., 1
    return below[:0:-1] + [-h for h in accumulate(dz[ref:], initial=0.0)]


def validate_grid(
    grid: ActuatorGrid | np.ndarray,
    cfg: SurfaceConfig,
    tol: float = PLANARITY_TOL,
    angle_tol: float = ANGLE_TOL,
) -> ConstraintReport:
    """Check a grid (separable or raw heights) against every constraint.

    Raw heights are an (n+1) x (m+1) array indexed [column, row].  Every
    check is one array expression over all actuators or cells; each list of
    the report holds the flagged entries in row-major order of their 1-based
    indices (roll: by row, then column).  A NaN height is a bounds violation.
    Infeasibility is reported as data, never raised.
    """
    if isinstance(grid, ActuatorGrid):
        h = grid.heights()
    else:
        h = np.asarray(grid, dtype=float)
    if h.shape != (cfg.n + 1, cfg.m + 1):
        raise ValueError(f"height matrix {h.shape} does not match grid "
                         f"({cfg.n + 1},{cfg.m + 1})")

    out = ~((h >= -tol) & (h <= cfg.stroke + tol))  # NaN too
    # the corners Z1..Z4 of every cell, indexed [I-1, J-1]
    z1, z2, z3, z4 = h[:-1, :-1], h[1:, :-1], h[1:, 1:], h[:-1, 1:]
    planarity = np.abs(z3 + z1 - z2 - z4)
    o = cell_orientation(z1 - z2, z1 - z4, cfg)
    spread = np.max(np.abs(o.pitch - o.pitch[:, :1]), axis=1)
    ratio = np.tan(o.roll) / np.cos(o.pitch)  # tan(roll)/cos(pitch) per cell
    roll = np.abs(ratio[1:] - ratio[:-1])  # [I-2, J-1]
    return ConstraintReport(
        planarity=[((i + 1, j + 1), float(planarity[i, j]))
                   for i, j in np.argwhere(planarity > tol).tolist()],
        pitch=[(i + 1, float(spread[i])) for i in np.flatnonzero(spread > angle_tol).tolist()],
        roll=[((i + 2, j + 1), float(roll[i, j]))
              for j, i in np.argwhere(roll.T > angle_tol).tolist()],
        bounds=[((i + 1, j + 1), float(h[i, j])) for i, j in np.argwhere(out).tolist()],
    )


def dof_count(cfg: SurfaceConfig) -> tuple[int, int, int]:
    """(orientation coordinates, constraints, degrees of freedom) of the surface."""
    coords = 2 * cfg.n * cfg.m
    return coords, coords - cfg.n - cfg.m, cfg.n + cfg.m
