"""E1: the paper's worked example, reproduced end to end.

Kept apart from :mod:`repro.analysis.experiments` so ``repro example``
loads only the schedulers this run needs, not the statistical sweeps,
the HBP baseline or the random-graph generator.
"""

from __future__ import annotations

from repro._record import Record
from repro.analysis.metrics import degraded_lengths
from repro.baselines.list_scheduler import (
    schedule_basic,
    schedule_non_fault_tolerant,
)
from repro.core.ftbar import schedule_ftbar
from repro.workloads.paper_example import build_problem


class PaperExampleResults(Record):
    """Every number section 4.3/4.4 reports for the worked example."""

    _fields = (
        "ft_length", "basic_length", "non_ft_length", "overhead", "degraded",
        "rtc_satisfied", "replicas", "comms",
    )

    def __init__(
        self,
        ft_length: float,
        basic_length: float,
        non_ft_length: float,
        overhead: float,
        degraded: dict[str, float],
        rtc_satisfied: bool,
        replicas: int,
        comms: int,
    ) -> None:
        self.ft_length = ft_length
        self.basic_length = basic_length
        self.non_ft_length = non_ft_length
        self.overhead = overhead
        self.degraded = degraded
        self.rtc_satisfied = rtc_satisfied
        self.replicas = replicas
        self.comms = comms


def run_paper_example() -> PaperExampleResults:
    """Reproduce the worked example end to end (E1a–E1c)."""
    problem = build_problem()
    ftbar = schedule_ftbar(problem)
    basic = schedule_basic(problem)
    non_ft = schedule_non_fault_tolerant(problem)
    degraded = degraded_lengths(ftbar.schedule, ftbar.expanded_algorithm)
    return PaperExampleResults(
        ft_length=ftbar.makespan,
        basic_length=basic.makespan,
        non_ft_length=non_ft.makespan,
        overhead=ftbar.makespan - basic.makespan,
        degraded=degraded,
        rtc_satisfied=ftbar.rtc_satisfied,
        replicas=ftbar.schedule.replica_count(),
        comms=ftbar.schedule.comm_count(),
    )
