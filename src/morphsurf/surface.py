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

import numpy as np

# Tolerances for grids we construct ourselves (raw measured grids get
# caller-supplied tolerances through validate_grid).
PLANARITY_TOL = 1e-9  # meters
ANGLE_TOL = 1e-9  # radians


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
    "float | None": (_REAL, float, "a finite number or null"),
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
    if value is None and kind == "float | None":
        return None
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


@functools.cache
def _checked_fields(cls) -> tuple[tuple[str, str], ...]:
    return tuple((f.name, f.type) for f in fields(cls) if f.type in _KINDS)


def check_stroke_split(frac_x: float, frac_y: float) -> None:
    """The stroke fractions each lie in [0, 1] and sum to 1."""
    if not (0.0 <= frac_x <= 1.0 and 0.0 <= frac_y <= 1.0):
        raise ValueError("stroke fractions must lie in [0, 1]")
    if abs(frac_x + frac_y - 1.0) > 1e-9:
        raise ValueError(
            f"stroke fractions must satisfy a + b = 1, got {frac_x} + {frac_y}"
        )


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
        if self.n < 1 or self.m < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.n}x{self.m}")
        if self.W <= 0 or self.L <= 0 or self.stroke <= 0:
            raise ValueError("W, L and stroke must be positive")
        if not (1 <= self.ref_col <= self.n and 1 <= self.ref_row <= self.m):
            raise ValueError(
                f"reference cell ({self.ref_col},{self.ref_row}) outside "
                f"{self.n}x{self.m} grid"
            )

    @property
    def width(self) -> float:
        """Workspace extent along x."""
        return self.n * self.W

    @property
    def length(self) -> float:
        """Workspace extent along y."""
        return self.m * self.L


@dataclass(frozen=True)
class ControlInput:
    """The n+m independent height differences plus the per-axis stroke split.

    dz_col[I-1] is the drop across any cell of column I along +x
    (south-west corner minus south-east corner); dz_row[J-1] likewise along
    +y.  frac_x + frac_y must equal 1: they split the stroke between the two
    axes.
    """

    dz_col: tuple[float, ...]
    dz_row: tuple[float, ...]
    frac_x: float
    frac_y: float

    def __post_init__(self):
        check_stroke_split(self.frac_x, self.frac_y)


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


def cell_orientation(dz1: float, dz2: float, cfg: SurfaceConfig) -> CellOrientation:
    """Orientation of a cell from its two height differences.

    dz1 = Z1 - Z2 (drop along +x), dz2 = Z1 - Z4 (drop along +y).  A positive
    dz1 tilts the cell so objects accelerate toward +x; a positive dz2 gives
    a negative roll and acceleration toward +y.
    """
    pitch = math.atan2(dz1, cfg.W)
    roll = math.atan2(-math.cos(pitch) * dz2, cfg.L)
    return CellOrientation(pitch, roll)


def rotation_matrix(o: CellOrientation) -> np.ndarray:
    """Rotation from the cell-fixed frame to the inertial frame (yaw = 0).

    Columns are the cell-frame basis vectors expressed in inertial
    coordinates.
    """
    ct, st = math.cos(o.pitch), math.sin(o.pitch)
    cp, sp = math.cos(o.roll), math.sin(o.roll)
    return np.array(
        [
            [ct, st * sp, cp * st],
            [0.0, cp, -sp],
            [-st, ct * sp, ct * cp],
        ]
    )


def surface_orientation_field(
    u: ControlInput, cfg: SurfaceConfig
) -> list[list[CellOrientation]]:
    """Orientation of every cell, indexed [I-1][J-1].

    Each column shares one pitch angle; rolls along a row follow the
    nonholonomic relation tan(roll)/cos(pitch) = const, which with the
    separable height representation reduces to every cell (I, J) seeing the
    same height differences (dz_col[I], dz_row[J]).
    """
    if len(u.dz_col) != cfg.n or len(u.dz_row) != cfg.m:
        raise ValueError(
            f"control input ({len(u.dz_col)},{len(u.dz_row)}) does not match "
            f"grid ({cfg.n},{cfg.m})"
        )
    return [
        [cell_orientation(u.dz_col[i], u.dz_row[j], cfg) for j in range(cfg.m)]
        for i in range(cfg.n)
    ]


def reconstruct_actuator_grid(u: ControlInput, cfg: SurfaceConfig) -> ActuatorGrid:
    """Actuator heights realizing the requested height differences.

    The reference cell's actuators are leveled to zero and the remaining
    column/row components follow cumulative sums outward, so
    dz_col[I] = col_heights[I] - col_heights[I+1] for every column (and the
    row analogue).  Raises InfeasibleControlError if any height would leave
    [0, stroke].
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
    if lo < -tol or hi > cfg.stroke + tol:
        i = int(np.argmin(col) if lo < -tol else np.argmax(col)) + 1
        j = int(np.argmin(row) if lo < -tol else np.argmax(row)) + 1
        h = lo if lo < -tol else hi
        raise InfeasibleControlError(
            f"actuator ({i},{j}) height {h:.6g} m outside [0, {cfg.stroke}]"
        )
    return ActuatorGrid(tuple(col), tuple(row))


def _component_heights(dz: tuple[float, ...], ref: int) -> list[float]:
    """Cumulative-sum height components for one axis (1-based ref index).

    Each height sums its own slice of dz with numpy's summation; a running
    cumulative sum would add in another order.
    """
    d = np.asarray(dz)
    add = np.add.reduce  # what ndarray.sum calls, without its wrapper
    return (
        [float(add(d[i:ref])) for i in range(ref)]  # actuator lines 1..ref
        + [-0.0]  # line ref+1: minus the empty sum
        + [float(-add(d[ref:i])) for i in range(ref + 1, len(dz) + 1)]
    )


def validate_grid(
    grid: ActuatorGrid | np.ndarray,
    cfg: SurfaceConfig,
    tol: float = PLANARITY_TOL,
    angle_tol: float = ANGLE_TOL,
) -> ConstraintReport:
    """Check a grid (separable or raw heights) against every constraint.

    Raw heights are an (n+1) x (m+1) array indexed [column, row].
    Infeasibility is reported as data, never raised.
    """
    if isinstance(grid, ActuatorGrid):
        h = grid.heights()
    else:
        h = np.asarray(grid, dtype=float)
    if h.shape != (cfg.n + 1, cfg.m + 1):
        raise ValueError(f"height matrix {h.shape} does not match grid "
                         f"({cfg.n + 1},{cfg.m + 1})")

    report = ConstraintReport()

    for i in range(cfg.n + 1):
        for j in range(cfg.m + 1):
            if h[i, j] < -tol or h[i, j] > cfg.stroke + tol:
                report.bounds.append(((i + 1, j + 1), float(h[i, j])))

    # Per-cell orientations from the corner heights.
    pitch = np.empty((cfg.n, cfg.m))
    ratio = np.empty((cfg.n, cfg.m))  # tan(roll)/cos(pitch) per cell
    for i in range(cfg.n):
        for j in range(cfg.m):
            z1, z2 = h[i, j], h[i + 1, j]
            z3, z4 = h[i + 1, j + 1], h[i, j + 1]
            res = abs(z3 + z1 - z2 - z4)
            if res > tol:
                report.planarity.append(((i + 1, j + 1), float(res)))
            o = cell_orientation(z1 - z2, z1 - z4, cfg)
            pitch[i, j] = o.pitch
            ratio[i, j] = math.tan(o.roll) / math.cos(o.pitch)

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


def dof_count(cfg: SurfaceConfig) -> tuple[int, int, int]:
    """(orientation coordinates, constraints, degrees of freedom) of the surface."""
    coords = 2 * cfg.n * cfg.m
    return coords, coords - cfg.n - cfg.m, cfg.n + cfg.m
