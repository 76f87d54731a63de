"""Workload generators: §6.1 random graphs, classic families, the example."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "families": (
        "butterfly", "family_problem", "gaussian_elimination", "in_tree",
        "out_tree", "pipeline",
    ),
    "paper_example": (
        "PAPER_BASIC_LENGTH", "PAPER_DEGRADED_LENGTHS", "PAPER_FT_LENGTH",
        "PAPER_NPF", "PAPER_OVERHEAD", "PAPER_RTC", "build_algorithm",
        "build_architecture", "build_comm_times", "build_exec_times",
        "build_problem",
    ),
    "random_dag": (
        "RandomWorkloadConfig", "generate_algorithm", "generate_comm_times",
        "generate_exec_times", "generate_layers", "generate_problem",
    ),
})

__all__ = [
    "PAPER_BASIC_LENGTH",
    "PAPER_DEGRADED_LENGTHS",
    "PAPER_FT_LENGTH",
    "PAPER_NPF",
    "PAPER_OVERHEAD",
    "PAPER_RTC",
    "RandomWorkloadConfig",
    "build_algorithm",
    "build_architecture",
    "build_comm_times",
    "build_exec_times",
    "build_problem",
    "butterfly",
    "family_problem",
    "gaussian_elimination",
    "generate_algorithm",
    "generate_comm_times",
    "generate_exec_times",
    "generate_layers",
    "generate_problem",
    "in_tree",
    "out_tree",
    "pipeline",
]
