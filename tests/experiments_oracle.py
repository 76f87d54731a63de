"""Direct per-graph overhead measurement: the oracle of the sweeps.

The Figure 9/10 sweeps of :mod:`repro.analysis.experiments` run through
the campaign subsystem and derive each graph's overheads from its
campaign record (``_overheads_from_record``).  This module measures one
graph by calling the schedulers and the crash simulation directly;
``tests/test_campaign.py`` checks that both give the same numbers.
"""

from __future__ import annotations

from repro.analysis.experiments import _GraphOverheads
from repro.analysis.metrics import degraded_lengths, overhead_percent
from repro.baselines.hbp import schedule_hbp
from repro.baselines.list_scheduler import schedule_non_fault_tolerant
from repro.core.ftbar import schedule_ftbar
from repro.problem import ProblemSpec


def overheads_for_problem(problem: ProblemSpec) -> _GraphOverheads:
    """Absence and per-crashed-processor presence overheads of one graph.

    *Absence* compares static schedule lengths.  *Presence* follows the
    paper (section 6.2): simulate the crash of each processor at time 0
    and measure the degraded schedule length; the sweep then averages
    each processor's overhead over the graphs and plots the max over the
    processors.
    """
    non_ft = schedule_non_fault_tolerant(problem)
    non_ft_length = non_ft.makespan

    ftbar = schedule_ftbar(problem)
    ftbar_crash = degraded_lengths(ftbar.schedule, ftbar.expanded_algorithm)
    hbp = schedule_hbp(problem)
    hbp_crash = degraded_lengths(hbp.schedule, problem.algorithm)
    return _GraphOverheads(
        ftbar_absence=overhead_percent(ftbar.makespan, non_ft_length),
        hbp_absence=overhead_percent(hbp.makespan, non_ft_length),
        ftbar_presence={
            processor: overhead_percent(length, non_ft_length)
            for processor, length in ftbar_crash.items()
        },
        hbp_presence={
            processor: overhead_percent(length, non_ft_length)
            for processor, length in hbp_crash.items()
        },
    )
