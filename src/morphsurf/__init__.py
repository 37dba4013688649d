"""Morphing-surface conveyance: grid kinematics, object dynamics, controllers."""

from .control import (
    ControllerParams,
    SingleCellGains,
    occupancy_sets,
    single_cell_feedback,
)
from .dynamics import (
    ObjectState,
    PhysicsParams,
)
from .engine import (
    RunMetrics,
    Scenario,
    SimTrace,
    batch,
    run,
)
from .surface import (
    ActuatorGrid,
    CellOrientation,
    ConstraintReport,
    ControlInput,
    InfeasibleControlError,
    SurfaceConfig,
    cell_orientation,
    dof_count,
    planar_completion,
    reconstruct_actuator_grid,
    validate_grid,
)

__all__ = [
    "ActuatorGrid",
    "CellOrientation",
    "ConstraintReport",
    "ControlInput",
    "ControllerParams",
    "InfeasibleControlError",
    "ObjectState",
    "PhysicsParams",
    "RunMetrics",
    "Scenario",
    "SimTrace",
    "SingleCellGains",
    "SurfaceConfig",
    "batch",
    "cell_orientation",
    "dof_count",
    "occupancy_sets",
    "planar_completion",
    "reconstruct_actuator_grid",
    "run",
    "single_cell_feedback",
    "validate_grid",
]
