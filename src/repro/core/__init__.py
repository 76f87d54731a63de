"""FTBAR — the paper's fault-tolerant scheduling heuristic (section 4)."""

from repro.core.compile import CompiledProblem
from repro.core.ftbar import (
    FTBARResult,
    FTBARScheduler,
    FTBARStats,
    StepRecord,
    ftbar_reference,
    schedule_ftbar,
)
from repro.core.kernel import CompiledReadySet, KernelPlanCache, SchedulingKernel
from repro.core.minimize import DuplicationStats, StartTimeMinimizer
from repro.core.options import SchedulerOptions
from repro.core.placement import (
    LinkState,
    PlacementPlan,
    PlacementPlanner,
    PlannedComm,
    PredecessorFeed,
    commit_plan,
)
from repro.core.pressure import PressureCalculator

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
