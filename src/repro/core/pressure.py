"""The schedule-pressure cost function (section 4.2).

The pressure of a pair ``(operation, processor)`` at step ``n`` is::

    σ(n)(o, p) = S_worst(n)(o, p) + S̄(o) − R(n−1)

where ``S_worst`` is the earliest start of ``o`` on ``p`` accounting for
the *latest* predecessor replica (the worst case under failures), ``S̄``
is the *latest start time from the end* — the static bottom level of the
operation — and ``R(n−1)`` is the previous critical-path estimate.  The
paper notes that ``R(n−1)`` is identical for all candidates of one step,
so the implementation drops it from the comparisons; :meth:`
PressureCalculator.critical_path_estimate` still exposes ``R`` for
introspection and tests.

Because the architecture is heterogeneous and the placement is unknown
while computing a *static* priority, ``S̄`` uses the average execution
time over the allowed processors and the average communication time over
all links, exactly like the SynDEx pressure the paper builds on.
"""

from __future__ import annotations

import math

from repro.graphs.algorithm import AlgorithmGraph
from repro.hardware.architecture import Architecture
from repro.schedule.schedule import Schedule
from repro.core.placement import PlacementPlan, PlacementPlanner
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes


class PressureCalculator:
    """Computes ``S̄`` (static) and σ (dynamic) for candidate pairs.

    Every σ evaluation plans the pair from scratch — this is the
    reference engine's cost function; the compiled kernel caches plans
    instead (:mod:`repro.core.kernel`).
    """

    def __init__(
        self,
        algorithm: AlgorithmGraph,
        architecture: Architecture,
        exec_times: ExecutionTimes,
        comm_times: CommunicationTimes,
        npf: int,
        planner: PlacementPlanner,
        processor_aware: bool = False,
    ) -> None:
        self._algorithm = algorithm
        self._architecture = architecture
        self._exec_times = exec_times
        self._comm_times = comm_times
        self._npf = npf
        self._planner = planner
        self._processor_aware = processor_aware
        self._sbar_cache: dict[str, float] = {}
        self.evaluations = 0

    # ------------------------------------------------------------------
    # static part: S̄ (bottom level with average times)
    # ------------------------------------------------------------------
    def average_execution(self, operation: str) -> float:
        """Mean execution time of ``operation`` over its allowed processors."""
        return self._exec_times.average(
            operation, self._architecture.processor_names()
        )

    def average_communication(self, edge: tuple[str, str]) -> float:
        """Mean transfer time of ``edge`` over all links (0 with no link)."""
        links = self._architecture.link_names()
        if not links:
            return 0.0
        return self._comm_times.average(edge, links)

    def tail(self, operation: str) -> float:
        """Latest start time from the *end* of ``o``: the path after it.

        The longest average-time path from the end of ``o`` to the end
        of the graph, excluding ``o``'s own execution (which enters the
        pressure with its actual per-processor duration).  A sink's
        tail is 0.
        """
        return self.sbar(operation) - self.average_execution(operation)

    def sbar(self, operation: str) -> float:
        """``S̄(o)``: longest average-time path from ``o`` to a sink.

        Includes the operation's own average execution time; a sink's
        ``S̄`` is exactly its average execution time.
        """
        cached = self._sbar_cache.get(operation)
        if cached is not None:
            return cached
        # Iterative reverse-topological computation (avoid recursion
        # limits on deep chains).
        order = self._algorithm.topological_order()
        for name in reversed(order):
            if name in self._sbar_cache:
                continue
            tail = 0.0
            for successor in self._algorithm.successors(name):
                candidate = (
                    self.average_communication((name, successor))
                    + self._sbar_cache[successor]
                )
                tail = max(tail, candidate)
            self._sbar_cache[name] = self.average_execution(name) + tail
        return self._sbar_cache[operation]

    def static_tables(self) -> tuple[list[float], list[float]]:
        """``(S̄, tail)`` per operation, in ``operation_names()`` order.

        The compiled kernel (:mod:`repro.core.kernel`) lowers the static
        pressure terms into flat arrays once per problem with the same
        reverse-topological sweep and averaging order, which keeps its
        σ values bit-identical to the reference engine's (cross-checked
        against this method by ``tests/test_compiled_kernel.py``).
        """
        names = self._algorithm.operation_names()
        return (
            [self.sbar(name) for name in names],
            [self.tail(name) for name in names],
        )

    # ------------------------------------------------------------------
    # dynamic part: σ(o, p)
    # ------------------------------------------------------------------
    def pressure(
        self, operation: str, processor: str, schedule: Schedule
    ) -> float:
        """σ(o, p) up to the constant ``R(n−1)``; ``inf`` when forbidden.

        The paper's formula is ``σ = S_worst(o, p) + S̄(o)`` with a
        processor-independent ``S̄`` (average execution times) — that is
        the default and what reproduces the paper's numbers.  In
        processor-aware mode σ instead charges the *actual* execution
        time on ``p``: ``σ = S_worst(o, p) + Exe(o, p) + tail(o)``,
        which better measures how much the placement would lengthen the
        critical path on heterogeneous architectures.

        Each evaluation plans the placement against a fresh link-state
        overlay, so trial comms of one pair never pollute another
        pair's evaluation.
        """
        self.evaluations += 1
        plan = self._planner.plan(operation, processor, schedule)
        return self._sigma(operation, plan)

    def _sigma(self, operation: str, plan: PlacementPlan | None) -> float:
        if plan is None:
            return math.inf
        if self._processor_aware:
            return plan.s_worst + plan.duration + self.tail(operation)
        return plan.s_worst + self.sbar(operation)

    def schedule_flexibility(
        self, operation: str, processor: str, schedule: Schedule, r_estimate: float
    ) -> float:
        """``SF(n)(o, p) = R(n) − S_worst(o, p) − S̄(o)`` (for introspection)."""
        plan = self._planner.plan(operation, processor, schedule)
        if plan is None:
            return -math.inf
        return r_estimate - plan.s_worst - self.sbar(operation)

    def critical_path_estimate(
        self, candidates: list[str], schedule: Schedule
    ) -> float:
        """``R(n)``: the current critical-path length estimate.

        Lower-bounded by the partial schedule's makespan and by the best
        achievable ``S_worst + S̄`` of every remaining candidate.
        """
        estimate = schedule.makespan()
        for operation in candidates:
            best = math.inf
            for processor in self._architecture.processor_names():
                self.evaluations += 1
                plan = self._planner.plan(operation, processor, schedule)
                if plan is not None:
                    best = min(best, plan.s_worst + self.sbar(operation))
            if not math.isinf(best):
                estimate = max(estimate, best)
        return estimate
