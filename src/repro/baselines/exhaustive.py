"""Exhaustive best-assignment scheduling for tiny problems.

Finding the best fault-tolerant schedule is NP-hard (the paper cites
Garey & Johnson), which is why FTBAR is a heuristic.  For *tiny*
problems, however, the replica-assignment space can be enumerated: this
module tries every way of assigning ``Npf + 1`` processors to every
operation, builds each schedule through the placement path FTBAR uses
(:meth:`~repro.core.kernel.SchedulingKernel.place`, without LIP
duplication: operations in canonical topological order, replicas
started at their earliest date, comms on their cheapest links), and
keeps the best.  One kernel serves the whole search, walked depth
first: each operation's replicas are placed from a rollback mark and
undone afterwards, so a prefix shared by many assignments is placed
once.

The result is a strong reference point for the optimality-gap
experiment (E10 in DESIGN.md).  Three honest caveats, documented here
and in the result object:

* the canonical operation order is fixed, so this is the optimum over
  *assignments*, not over all static schedules;
* FTBAR's LIP duplication can add replicas beyond ``Npf + 1``, which
  the enumeration does not, so the heuristic can occasionally *beat*
  this reference — a negative gap is meaningful, not a bug;
* transfers are planned with single routes (``Npl`` 0) whatever the
  problem's ``npl``: the search optimises processor crashes only, and
  a problem with ``npl: 1`` gets the same result as its ``npl: 0``
  twin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.compile import CompiledProblem
from repro.core.kernel import SchedulingKernel
from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule


@dataclass
class ExhaustiveResult:
    """Best assignment found by the enumeration.

    ``assignments_total`` is the size of the assignment space; the
    search always covers all of it (a space over the bound is refused
    up front), so no partial optimum is ever returned.
    """

    schedule: Schedule
    makespan: float
    assignments_total: int


class ExhaustiveScheduler:
    """Enumerates every ``Npf + 1``-processor assignment per operation.

    ``max_assignments`` bounds the search (the space is
    ``C(P, Npf+1) ** N``); exceeding it raises
    :class:`~repro.exceptions.SchedulingError` so callers never silently
    get a partial optimum.
    """

    def __init__(self, problem: ProblemSpec, max_assignments: int = 500_000) -> None:
        if problem.algorithm.memory_operations():
            raise SchedulingError(
                "the exhaustive baseline does not support memory operations"
            )
        problem.validate()
        self._problem = problem
        self._algorithm = problem.algorithm
        self._architecture = problem.architecture
        self._npf = problem.npf
        self._compiled = CompiledProblem(
            self._algorithm,
            self._architecture,
            problem.exec_times,
            problem.comm_times,
            problem.npf,
            0,
        )
        self._order = self._algorithm.topological_order()
        self._choices = self._assignment_choices()
        self._total = math.prod(len(c) for c in self._choices.values())
        if self._total > max_assignments:
            raise SchedulingError(
                f"assignment space has {self._total} points, more than the "
                f"bound {max_assignments}; use FTBAR for problems this big"
            )

    def _assignment_choices(self) -> dict[str, list[tuple[str, ...]]]:
        replicas = self._npf + 1
        choices: dict[str, list[tuple[str, ...]]] = {}
        for operation in self._order:
            allowed = self._problem.exec_times.allowed_processors(
                operation, self._architecture.processor_names()
            )
            if len(allowed) < replicas:
                raise InfeasibleReplicationError(
                    f"operation {operation!r} can run on {len(allowed)} "
                    f"processor(s), {replicas} required"
                )
            choices[operation] = list(itertools.combinations(allowed, replicas))
        return choices

    def run(self) -> ExhaustiveResult:
        """Enumerate every assignment; return the best schedule found.

        The assignment tree is walked depth first in
        ``itertools.product`` order, one operation per depth, so a
        prefix shared by many assignments is placed once and undone to
        its rollback mark.  A prefix is abandoned once the running
        makespan reaches the best one so far: the makespan only grows
        as replicas are placed, so none of its assignments could win
        (the first minimal assignment wins, as without pruning).
        """
        kernel = self._kernel()
        choices = [self._choices[op] for op in self._order]
        best: tuple[tuple[str, ...], ...] | None = None
        best_makespan = math.inf
        prefix: list[tuple[str, ...]] = []

        def walk(depth: int) -> None:
            nonlocal best, best_makespan
            if depth == len(choices):
                best_makespan = kernel.makespan
                best = tuple(prefix)
                return
            operation = self._order[depth]
            for processors in choices[depth]:
                if kernel.makespan >= best_makespan:
                    return
                mark = kernel.mark()
                if self._place(kernel, operation, processors, best_makespan):
                    prefix.append(processors)
                    walk(depth + 1)
                    prefix.pop()
                kernel.undo_to(mark)

        walk(0)
        if best is None:  # pragma: no cover - defensive
            raise SchedulingError("no feasible assignment found")
        kernel = self._kernel()
        for operation, processors in zip(self._order, best):
            self._place(kernel, operation, processors, math.inf)
        return ExhaustiveResult(
            schedule=kernel.materialize(),
            makespan=best_makespan,
            assignments_total=self._total,
        )

    def _kernel(self) -> SchedulingKernel:
        """A fresh kernel over an empty ``-exhaustive`` schedule."""
        schedule = Schedule(
            processors=self._architecture.processor_names(),
            links=self._architecture.link_names(),
            npf=self._npf,
            name=f"{self._problem.name}-exhaustive",
        )
        return SchedulingKernel(
            self._compiled, schedule, duplication=False, symmetry=False
        )

    @staticmethod
    def _place(
        kernel: SchedulingKernel,
        operation: str,
        processors: tuple[str, ...],
        prune_at: float,
    ) -> bool:
        """Place ``operation``'s replicas; False once the makespan reaches
        ``prune_at``."""
        for processor in processors:
            kernel.place(operation, processor)
            if kernel.makespan >= prune_at:
                return False
        return True


def schedule_exhaustive(
    problem: ProblemSpec, max_assignments: int = 500_000
) -> ExhaustiveResult:
    """One-call API for the exhaustive best-assignment search."""
    return ExhaustiveScheduler(problem, max_assignments).run()
