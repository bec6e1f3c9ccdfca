"""Small-cell link scheduling and power allocation toolkit."""

from .topo import (
    SystemConfig,
    Node,
    NodeKind,
    Topology,
    PathLossKind,
    GeometryInfeasibleError,
    generate_topology,
    path_loss_db,
    los_probability,
    channel_gain_linear,
    noise_power_w,
    save_topology,
    load_topology,
)
from .linkmodel import (
    Direction,
    Schedule,
    LinkProblem,
    PowerAlloc,
    ProblemBatch,
    schedule_count,
    enumerate_schedules,
    build_link_problem,
    problem_batch,
    evaluate,
)
from .gp import GpConfig, GpResult, PowerInit, wsr_maximize, condense_posynomial

__version__ = "0.1.0"

__all__ = [
    "SystemConfig",
    "Node",
    "NodeKind",
    "Topology",
    "PathLossKind",
    "GeometryInfeasibleError",
    "generate_topology",
    "path_loss_db",
    "los_probability",
    "channel_gain_linear",
    "noise_power_w",
    "save_topology",
    "load_topology",
    "Direction",
    "Schedule",
    "LinkProblem",
    "PowerAlloc",
    "ProblemBatch",
    "schedule_count",
    "enumerate_schedules",
    "build_link_problem",
    "problem_batch",
    "evaluate",
    "GpConfig",
    "GpResult",
    "PowerInit",
    "wsr_maximize",
    "condense_posynomial",
    "__version__",
]
