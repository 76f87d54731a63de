"""FTBAR — the paper's fault-tolerant scheduling heuristic (section 4)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "compile": ("CompiledProblem",),
    "ftbar": (
        "FTBARResult", "FTBARScheduler", "FTBARStats", "StepRecord",
        "ftbar_reference", "schedule_ftbar",
    ),
    "kernel": ("CompiledReadySet", "KernelPlanCache", "SchedulingKernel"),
    "minimize": ("DuplicationStats", "StartTimeMinimizer"),
    "options": ("SchedulerOptions",),
    "placement": (
        "LinkState", "PlacementPlan", "PlacementPlanner", "PlannedComm",
        "PredecessorFeed", "commit_plan",
    ),
    "pressure": ("PressureCalculator",),
})

__all__ = [
    "CompiledProblem",
    "CompiledReadySet",
    "DuplicationStats",
    "FTBARResult",
    "FTBARScheduler",
    "FTBARStats",
    "KernelPlanCache",
    "LinkState",
    "PlacementPlan",
    "PlacementPlanner",
    "PlannedComm",
    "PredecessorFeed",
    "PressureCalculator",
    "SchedulerOptions",
    "SchedulingKernel",
    "StartTimeMinimizer",
    "StepRecord",
    "commit_plan",
    "ftbar_reference",
    "schedule_ftbar",
]
