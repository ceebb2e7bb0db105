"""netattack: attack and failure simulations on scale-free networks.

Build or load a graph, point an attack strategy at it, and read off the
robustness curve: giant-cluster fraction S and average in-cluster path
length d as functions of the removed fraction f, plus the crash point
where the network falls apart.
"""

from ._version import __version__
from .graph import Graph, build_graph
from .generators import (
    BaParams,
    degree_histogram,
    generate_ba,
    load_edge_list,
    write_edge_list,
)
from .attacks import (
    AttackTrace,
    ProtectedRule,
    StrategySpec,
    build_protected_set,
    run_attack,
)
from .metrics import (
    CrashCriterion,
    CurvePoint,
    MetricsRow,
    SnapshotCadence,
    crash_threshold,
    curve_export,
    giant_sizes,
    snapshot,
    write_curve_csv,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    materialize_graph,
    run_experiment,
    run_trials,
    write_trace_csv,
)

__all__ = [
    "__version__",
    "Graph",
    "build_graph",
    "BaParams",
    "generate_ba",
    "load_edge_list",
    "write_edge_list",
    "degree_histogram",
    "ProtectedRule",
    "StrategySpec",
    "SnapshotCadence",
    "AttackTrace",
    "build_protected_set",
    "run_attack",
    "CrashCriterion",
    "MetricsRow",
    "CurvePoint",
    "giant_sizes",
    "snapshot",
    "crash_threshold",
    "curve_export",
    "write_curve_csv",
    "ConfigError",
    "ExperimentConfig",
    "materialize_graph",
    "run_experiment",
    "run_trials",
    "write_trace_csv",
]
