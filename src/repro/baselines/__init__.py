"""Baseline schedulers: the paper's comparison points and references."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "exhaustive": (
        "ExhaustiveResult", "ExhaustiveScheduler", "schedule_exhaustive",
    ),
    "hbp": (
        "HBP_REPLICAS", "HBPResult", "HBPScheduler", "HBPStats",
        "schedule_hbp",
    ),
    "list_scheduler": (
        "non_fault_tolerant_makespan", "schedule_basic",
        "schedule_non_fault_tolerant",
    ),
})

__all__ = [
    "ExhaustiveResult",
    "ExhaustiveScheduler",
    "HBPResult",
    "HBPScheduler",
    "HBPStats",
    "HBP_REPLICAS",
    "non_fault_tolerant_makespan",
    "schedule_basic",
    "schedule_exhaustive",
    "schedule_hbp",
    "schedule_non_fault_tolerant",
]
