"""Non-fault-tolerant baseline schedulers.

Section 6.2 computes the fault-tolerance overhead against the
*non fault-tolerant schedule length* (non-FTSL) "produced by FTBAR with
``Npf = 0``" — that is exactly :func:`schedule_non_fault_tolerant`.
Callers that need only the length use
:func:`non_fault_tolerant_makespan`, which computes it once per problem
content: the baseline does not depend on the problem's ``Npf``, so the
runs of one problem at several ``Npf`` values share it.

Section 4.4 additionally quotes the schedule length of "a basic
scheduling heuristic (for instance the one of SynDEx)" on the worked
example; :func:`schedule_basic` is that variant — the same pressure-based
list scheduling with neither replication nor LIP duplication.

Both baselines delegate to :class:`~repro.core.ftbar.FTBARScheduler`, so
they run on the same engine — the compiled kernel — as the
fault-tolerant runs they are compared against.
"""

from __future__ import annotations

from repro.core.compile import baseline_makespan
from repro.core.ftbar import FTBARResult, FTBARScheduler, schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.problem import ProblemSpec


def _with_npf_zero(problem: ProblemSpec, name_suffix: str) -> ProblemSpec:
    """The baseline's problem: rebuilt with ``Npf = 0`` and ``Npl = 0``."""
    return problem.replace(npf=0, npl=0, name=f"{problem.name}{name_suffix}")


def schedule_non_fault_tolerant(
    problem: ProblemSpec,
    options: SchedulerOptions | None = None,
) -> FTBARResult:
    """FTBAR with ``Npf = 0`` and ``Npl = 0``: the paper's non-FTSL reference.

    Keeps every other option (including LIP duplication) identical to
    the fault-tolerant run so the overhead isolates the replication
    cost.
    """
    return schedule_ftbar(_with_npf_zero(problem, "-nonft"), options)


def non_fault_tolerant_makespan(
    problem: ProblemSpec,
    options: SchedulerOptions | None = None,
) -> float:
    """The makespan of :func:`schedule_non_fault_tolerant`, memoized.

    Building the scheduler compiles (a memo hit once the problem's
    fault-tolerant run has compiled it), validates and checks
    feasibility as a full run would; the kernel then runs only for a
    content and options value not seen before
    (:func:`repro.core.compile.baseline_makespan`), and only its
    macro-step loop: the length is read off the kernel, so no
    ``Schedule`` event is written and ``Rtc`` is not checked
    (:meth:`~repro.core.ftbar.FTBARScheduler.makespan`).
    ``reset_compile_cache()`` empties the memo.
    """
    scheduler = FTBARScheduler(_with_npf_zero(problem, "-nonft"), options)
    return baseline_makespan(
        scheduler.compiled, scheduler.options, scheduler.makespan
    )


def schedule_basic(
    problem: ProblemSpec,
    options: SchedulerOptions | None = None,
) -> FTBARResult:
    """SynDEx-like basic heuristic: no replication, no duplication.

    This is the reference quoted in section 4.4 for the worked example
    (schedule length 10.7 on the authors' run).
    """
    return schedule_ftbar(
        _with_npf_zero(problem, "-basic"),
        (options or SchedulerOptions()).replace(duplication=False),
    )
