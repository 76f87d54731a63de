"""FTBAR — the paper's fault-tolerant scheduling heuristic (section 4)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "compile": ("CompiledProblem",),
    "ftbar": (
        "FTBARResult", "FTBARScheduler", "FTBARStats", "StepRecord",
        "schedule_ftbar",
    ),
    "kernel": (
        "CompiledReadySet", "DuplicationStats", "KernelPlanCache",
        "SchedulingKernel",
    ),
    "options": ("SchedulerOptions",),
})

__all__ = [
    "CompiledProblem",
    "CompiledReadySet",
    "DuplicationStats",
    "FTBARResult",
    "FTBARScheduler",
    "FTBARStats",
    "KernelPlanCache",
    "SchedulerOptions",
    "SchedulingKernel",
    "StepRecord",
    "schedule_ftbar",
]
