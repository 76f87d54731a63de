"""Paper-literal FTBAR: the compiled kernel's test oracle.

The reference the production engine (:func:`repro.core.ftbar.schedule_ftbar`,
which runs :mod:`repro.core.kernel`) is pinned against:
``tests/test_engine_equivalence.py`` and ``tests/test_compiled_kernel.py``
diff the kernel's replica placements, comm orders and observer
:class:`~repro.core.ftbar.StepRecord` streams against
:func:`ftbar_reference` over their corpora.  It runs section 4 as
written:

* the candidate list is rescanned every macro-step (macro-step Ã);
* every ``(candidate, processor)`` pair is planned from scratch through
  the object planner :class:`PlacementPlanner` and priced by
  :class:`PressureCalculator` (macro-steps À and Á);
* each kept processor receives its replica through
  :class:`StartTimeMinimizer`, the ``Minimize_start_time`` procedure
  (micro-step Â), which rolls its speculative LIP duplications back
  through the mutation log of :class:`LoggedSchedule`.

It keeps no plan cache and validates the problem up front, so it is
slow, and it is kept only as the oracle.  Links are reserved
append-only, as in the paper and the kernel.

The object planner (:class:`LinkState`, :class:`PlacementPlanner`,
:func:`commit_plan`) at the end of this module is the readable
counterpart of the kernel's flat ``_plan`` / ``_commit``; the
exhaustive E10 enumeration over it (:func:`exhaustive_reference`) is
the oracle of :mod:`repro.baselines.exhaustive`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.baselines.exhaustive import ExhaustiveResult
from repro.core.ftbar import (
    FTBARResult,
    FTBARStats,
    StepRecord,
    _expand_timing,
    _expanded_rtc,
)
from repro.core.kernel import DuplicationStats
from repro.core.options import SchedulerOptions
from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.graphs.algorithm import AlgorithmGraph
from repro.graphs.operations import is_memory_half
from repro.hardware.architecture import Architecture
from repro.problem import ProblemSpec
from repro.schedule.events import ScheduledComm, ScheduledOperation
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes

_EPSILON = 1e-9


@dataclass(frozen=True)
class ScheduleSnapshot:
    """Opaque saved state for :meth:`LoggedSchedule.restore`."""

    processor_timelines: Mapping[str, tuple[ScheduledOperation, ...]]
    link_timelines: Mapping[str, tuple[ScheduledComm, ...]]
    replicas: Mapping[str, tuple[ScheduledOperation, ...]]
    makespan: float
    replica_index: Mapping[tuple[str, str], ScheduledOperation]
    inbound_comms: Mapping[tuple[str, int], tuple[ScheduledComm, ...]]
    edge_comms: Mapping[tuple[str, str], tuple[ScheduledComm, ...]]


def _remove(events: list, event) -> None:
    """Delete ``event`` itself (not an equal twin) from a sorted list."""
    index = bisect.bisect_left(events, event)
    while events[index] is not event:
        index += 1
    del events[index]


class LoggedSchedule(Schedule):
    """A :class:`Schedule` that can roll placements back.

    ``Minimize_start_time`` places a duplicated LIP speculatively and
    undoes it when ``S_worst`` does not improve (step Ð).  Every
    placement appends ``(event, makespan before)`` to a mutation log, so
    :meth:`undo_to` costs O(changes); :meth:`snapshot` / :meth:`restore`
    save and restore the whole state.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._log: list[tuple] = []

    def place_operation(self, *args, **kwargs) -> ScheduledOperation:
        makespan = self._makespan
        event = super().place_operation(*args, **kwargs)
        self._log.append((event, makespan))
        return event

    def place_comm(self, *args, **kwargs) -> ScheduledComm:
        makespan = self._makespan
        event = super().place_comm(*args, **kwargs)
        self._log.append((event, makespan))
        return event

    def mark(self) -> int:
        """An O(1) rollback point for :meth:`undo_to` (LIFO only).

        Marks must be unwound in LIFO order and become invalid after a
        :meth:`restore` (which resets the log).
        """
        return len(self._log)

    def undo_to(self, mark: int) -> None:
        """Unwind every placement made since ``mark``, newest first."""
        while len(self._log) > mark:
            event, makespan = self._log.pop()
            if isinstance(event, ScheduledOperation):
                _remove(self._processor_timelines[event.processor], event)
                replicas = self._replicas[event.operation]
                replicas.pop()
                if not replicas:
                    del self._replicas[event.operation]
                del self._replica_index[(event.operation, event.processor)]
            else:
                _remove(self._link_timelines[event.link], event)
                _remove(
                    self._inbound_comms[(event.target, event.target_replica)],
                    event,
                )
                _remove(self._edge_comms[(event.source, event.target)], event)
            self._makespan = makespan

    def snapshot(self) -> ScheduleSnapshot:
        """Capture the current state; events are immutable so this is cheap."""
        return ScheduleSnapshot(
            processor_timelines={
                p: tuple(t) for p, t in self._processor_timelines.items()
            },
            link_timelines={l: tuple(t) for l, t in self._link_timelines.items()},
            replicas={o: tuple(r) for o, r in self._replicas.items()},
            makespan=self._makespan,
            replica_index=dict(self._replica_index),
            inbound_comms={k: tuple(v) for k, v in self._inbound_comms.items()},
            edge_comms={k: tuple(v) for k, v in self._edge_comms.items()},
        )

    def restore(self, saved: ScheduleSnapshot) -> None:
        """Roll the schedule back to a previously captured snapshot.

        Resets the mutation log: :meth:`mark` cookies taken before a
        restore must not be passed to :meth:`undo_to` afterwards.
        """
        self._log.clear()
        self._processor_timelines = {
            p: list(t) for p, t in saved.processor_timelines.items()
        }
        self._link_timelines = {l: list(t) for l, t in saved.link_timelines.items()}
        self._replicas = {o: list(r) for o, r in saved.replicas.items()}
        self._makespan = saved.makespan
        self._replica_index = dict(saved.replica_index)
        self._inbound_comms = {k: list(v) for k, v in saved.inbound_comms.items()}
        self._edge_comms = {k: list(v) for k, v in saved.edge_comms.items()}


def critical_feed(plan: PlacementPlan) -> PredecessorFeed | None:
    """The feed that determines ``plan.s_worst`` (the LIP's feed).

    Ties are broken toward the lexicographically smallest predecessor
    name so the heuristic stays deterministic.  Returns ``None`` for
    source operations.
    """
    if not plan.feeds:
        return None
    return max(
        plan.feeds,
        key=lambda f: (f.worst_case(plan.npf), _ReverseName(f.predecessor)),
    )


class _ReverseName(str):
    """Order-inverted string so ``max`` breaks ties toward small names."""

    def __lt__(self, other):  # type: ignore[override]
        return str.__gt__(self, other)

    def __gt__(self, other):  # type: ignore[override]
        return str.__lt__(self, other)


class PressureCalculator:
    """The schedule-pressure cost function (section 4.2).

    The pressure of a pair ``(operation, processor)`` at step ``n`` is::

        σ(n)(o, p) = S_worst(n)(o, p) + S̄(o) − R(n−1)

    where ``S_worst`` is the earliest start of ``o`` on ``p`` accounting
    for the *latest* predecessor replica (the worst case under failures),
    ``S̄`` is the *latest start time from the end* — the static bottom
    level of the operation — and ``R(n−1)`` is the previous critical-path
    estimate.  The paper notes that ``R(n−1)`` is identical for all
    candidates of one step, so the comparisons drop it;
    :meth:`critical_path_estimate` still exposes ``R`` for tests.

    Because the architecture is heterogeneous and the placement is
    unknown while computing a *static* priority, ``S̄`` uses the average
    execution time over the allowed processors and the average
    communication time over all links, exactly like the SynDEx pressure
    the paper builds on.  Every σ evaluation plans the pair from scratch.
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

        The compiled problem (:mod:`repro.core.compile`) lowers the
        static pressure terms into flat arrays once per problem with the
        same reverse-topological sweep and averaging order, which keeps
        the kernel's σ values bit-identical to this oracle's
        (``tests/test_compiled_kernel.py`` cross-checks the two).
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
        time on ``p``: ``σ = S_worst(o, p) + Exe(o, p) + tail(o)``.

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
        """``SF(n)(o, p) = R(n) − S_worst(o, p) − S̄(o)``."""
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


@dataclass
class StartTimeMinimizer:
    """The ``Minimize_start_time`` procedure (section 4.2, steps Ê–Ñ).

    Before a replica of the selected operation ``o`` is placed on
    processor ``p``, the procedure tries to *duplicate* the operation's
    Latest Immediate Predecessor (LIP) — the predecessor whose data
    arrives last in the worst case — onto ``p`` itself.  A co-located
    predecessor feeds the replica through a zero-cost intra-processor
    communication, so a successful duplication removes the critical
    comm.  Duplications are kept only while ``S_worst(o, p)`` strictly
    improves; otherwise they are rolled back via the O(changes)
    mutation log of a :class:`LoggedSchedule` (step Ð).  The procedure recurses: the
    duplicated LIP's own start is minimised the same way (step Í),
    following Ahmad & Kwok's duplication-based scheduling.
    """

    planner: PlacementPlanner
    exec_times: ExecutionTimes
    duplication: bool = True
    stats: DuplicationStats = field(default_factory=DuplicationStats)

    def place(
        self,
        operation: str,
        processor: str,
        schedule: LoggedSchedule,
        duplicated: bool = False,
    ) -> ScheduledOperation:
        """Implement ``Minimize_start_time(operation, processor)``.

        Returns the placed replica.  Raises
        :class:`~repro.exceptions.SchedulingError` when the operation
        cannot run on the processor (step Ë: ``S_worst`` undefined).
        """
        plan = self.planner.plan(operation, processor, schedule)
        if plan is None:
            raise SchedulingError(
                f"operation {operation!r} cannot be scheduled on {processor!r}"
            )
        if self.duplication:
            plan = self._improve_by_duplication(plan, schedule)
        return commit_plan(plan, schedule, duplicated=duplicated)

    def _improve_by_duplication(
        self, plan: PlacementPlan, schedule: LoggedSchedule
    ) -> PlacementPlan:
        operation, processor = plan.operation, plan.processor
        best_worst = plan.s_worst
        while True:
            lip = self._duplicable_lip(plan, schedule)
            if lip is None:
                return plan
            self.stats.attempts += 1
            saved = schedule.mark()
            try:
                # Step Í: recursively minimise the LIP's start on p, which
                # places an extra (duplicated) replica of the LIP there.
                self.place(lip, processor, schedule, duplicated=True)
            except SchedulingError:
                schedule.undo_to(saved)
                self.stats.rolled_back += 1
                return plan
            new_plan = self.planner.plan(operation, processor, schedule)
            if new_plan is None or new_plan.s_worst >= best_worst - _EPSILON:
                # Step Ð: the replication does not pay off — undo it all.
                schedule.undo_to(saved)
                self.stats.rolled_back += 1
                return plan
            # Step Ñ: improvement kept; hunt for the new LIP.
            self.stats.kept += 1
            self.stats.extra_replicas += 1
            best_worst = new_plan.s_worst
            plan = new_plan

    def _duplicable_lip(
        self, plan: PlacementPlan, schedule: Schedule
    ) -> str | None:
        """Step Ì: the LIP of the plan, when duplicating it can help.

        The LIP's feed must be remote (a co-located predecessor already
        costs nothing), the predecessor must be allowed on the processor,
        must not be a memory half (register replicas are pinned together
        and never duplicated), and must not already have a replica there.
        """
        feed = critical_feed(plan)
        if feed is None or feed.local_end is not None:
            return None
        predecessor = feed.predecessor
        if is_memory_half(predecessor):
            return None
        if not self.exec_times.is_allowed(predecessor, plan.processor):
            return None
        if schedule.replica_on(predecessor, plan.processor) is not None:
            return None
        return predecessor


class ReferenceScheduler:
    """The paper-literal macro-step loop over schedule objects."""

    def __init__(
        self,
        problem: ProblemSpec,
        options: SchedulerOptions | None = None,
        observer: Callable[[StepRecord], None] | None = None,
    ) -> None:
        options = options or SchedulerOptions()
        self._observer = observer
        self._problem = problem
        self._npf = problem.npf
        self._npl = problem.npl
        problem.validate()
        self._architecture = problem.architecture
        self._algorithm, pairs = problem.algorithm.expand_memories()
        self._memory_pairs = dict(pairs)
        self._pins = {write: read for read, write in self._memory_pairs.values()}
        exec_times, comm_times = _expand_timing(problem, self._memory_pairs)
        self.planner = PlacementPlanner(
            self._algorithm,
            self._architecture,
            exec_times,
            comm_times,
            self._npf,
            npl=self._npl,
        )
        self.pressure = PressureCalculator(
            self._algorithm,
            self._architecture,
            exec_times,
            comm_times,
            self._npf,
            self.planner,
            processor_aware=options.processor_aware_pressure,
        )
        self.minimizer = StartTimeMinimizer(
            planner=self.planner,
            exec_times=exec_times,
            duplication=options.duplication,
        )

    def run(self) -> FTBARResult:
        """Execute the macro-steps until every operation is placed."""
        started = time.perf_counter()
        schedule = LoggedSchedule(
            processors=self._architecture.processor_names(),
            links=self._architecture.link_names(),
            npf=self._npf,
            npl=self._npl,
            name=f"{self._problem.name}-ftbar",
        )
        stats = FTBARStats()
        scheduled: set[str] = set()
        while True:
            candidates = self._candidates(scheduled)
            if not candidates:
                break
            stats.steps += 1
            operation, processors, urgency, pressures = self._select(
                candidates, schedule
            )
            for processor in processors:
                self._place(operation, processor, schedule)
            scheduled.add(operation)
            if self._observer is not None:
                self._observer(
                    StepRecord(
                        step=stats.steps,
                        candidates=tuple(candidates),
                        operation=operation,
                        processors=processors,
                        urgency=urgency,
                        pressures=pressures,
                        makespan=schedule.makespan(),
                    )
                )
        if stats.steps != len(self._algorithm):
            missing = sorted(
                set(self._algorithm.operation_names())
                - set(schedule.scheduled_operations())
            )
            raise SchedulingError(
                f"scheduling stalled; unplaced operations: {missing}"
            )
        stats.pressure_evaluations = self.pressure.evaluations
        stats.duplication = self.minimizer.stats
        stats.wall_time_s = time.perf_counter() - started
        return FTBARResult(
            schedule=schedule,
            rtc_report=_expanded_rtc(
                self._problem.rtc, self._memory_pairs
            ).check(schedule),
            stats=stats,
            expanded_algorithm=self._algorithm,
            memory_pairs=self._memory_pairs,
        )

    def _candidates(self, scheduled: set[str]) -> list[str]:
        """Macro-step Ã: operations whose predecessors and anchors are placed."""
        ready: list[str] = []
        for operation in self._algorithm.operation_names():
            if operation in scheduled:
                continue
            predecessors = self._algorithm.predecessors(operation)
            if any(p not in scheduled for p in predecessors):
                continue
            anchor = self._pins.get(operation)
            if anchor is not None and anchor not in scheduled:
                continue
            ready.append(operation)
        return ready

    def _select(
        self, candidates: list[str], schedule: Schedule
    ) -> tuple[str, tuple[str, ...], float, dict[tuple[str, str], float]]:
        """Macro-steps À and Á: the most urgent candidate, its processors."""
        best_choice: tuple[float, str, tuple[str, ...]] | None = None
        pressures: dict[tuple[str, str], float] = {}
        required = self._npf + 1
        for operation in candidates:
            ranked: list[tuple[float, str]] = []
            for processor in self._processor_pool(operation, schedule):
                sigma = self.pressure.pressure(operation, processor, schedule)
                pressures[(operation, processor)] = sigma
                if sigma != math.inf:
                    ranked.append((sigma, processor))
            ranked.sort()
            if len(ranked) < required:
                raise InfeasibleReplicationError(
                    f"operation {operation!r} can run on {len(ranked)} "
                    f"processor(s), {required} required to tolerate "
                    f"{self._npf} failure(s)"
                )
            kept = ranked[:required]
            urgency = kept[-1][0]
            if best_choice is None or (
                urgency > best_choice[0]
                or (urgency == best_choice[0] and operation < best_choice[1])
            ):
                best_choice = (
                    urgency,
                    operation,
                    tuple(processor for _, processor in kept),
                )
        assert best_choice is not None
        return best_choice[1], best_choice[2], best_choice[0], pressures

    def _processor_pool(self, operation: str, schedule: Schedule) -> tuple[str, ...]:
        """A pinned memory half may only go where its anchor half lives."""
        anchor = self._pins.get(operation)
        if anchor is None:
            return self._architecture.processor_names()
        return tuple(sorted(r.processor for r in schedule.replicas_of(anchor)))

    def _place(self, operation: str, processor: str, schedule: Schedule) -> None:
        """Micro-step Â for one kept processor."""
        if operation in self._pins:
            # Memory halves are placed directly: duplicating register
            # halves would break the read/write co-location invariant.
            plan = self.planner.plan(operation, processor, schedule)
            if plan is None:
                raise InfeasibleReplicationError(
                    f"memory half {operation!r} is forbidden on {processor!r} "
                    f"where its register lives"
                )
            commit_plan(plan, schedule)
            return
        self.minimizer.place(operation, processor, schedule)


def ftbar_reference(
    problem: ProblemSpec,
    options: SchedulerOptions | None = None,
    observer: Callable[[StepRecord], None] | None = None,
) -> FTBARResult:
    """Run the paper-literal loop; same signature as ``schedule_ftbar``."""
    return ReferenceScheduler(problem, options, observer=observer).run()


# ----------------------------------------------------------------------
# The object planner: earliest start times and communication slots
# ----------------------------------------------------------------------
#
# It answers the question at the heart of the heuristic: *if operation
# ``o`` were placed on processor ``p`` right now, when could it start,
# and which comms would that imply?*  Planning never mutates the real
# schedule; reservations happen on a :class:`LinkState` overlay, and a
# chosen plan is committed afterwards with :func:`commit_plan`.  The
# kernel (:mod:`repro.core.kernel`) mirrors its arithmetic on flat
# arrays.


class LinkState:
    """Append-mode reservation overlay on the link timelines of a schedule.

    A link's next free instant is the end of its last comm, real or
    trial (the paper reserves links append-only).  Trial reservations
    live only in this object, so a fresh ``LinkState`` per evaluation
    gives side-effect-free planning: it tracks one running free instant
    per link, seeded from the O(1) ``link_available``.
    """

    def __init__(self, schedule: Schedule) -> None:
        self._schedule = schedule
        self._free: dict[str, float] = {}

    def preview(self, link: str, ready: float, duration: float) -> tuple[float, float]:
        """The slot a reservation would take, without reserving it."""
        free = self._free.get(link)
        if free is None:
            free = self._schedule.link_available(link)
        start = max(ready, free)
        return start, start + duration

    def reserve(self, link: str, ready: float, duration: float) -> tuple[float, float]:
        """Pick a slot with :meth:`preview` and mark it busy."""
        start, end = self.preview(link, ready, duration)
        self._free[link] = end
        return start, end


@dataclass(frozen=True)
class PlannedComm:
    """A communication the plan would schedule (one hop of one route)."""

    source: str
    target: str
    source_replica: int
    link: str
    start: float
    end: float
    source_processor: str
    target_processor: str
    hop_index: int
    route: int = 0


@dataclass
class PredecessorFeed:
    """How one predecessor's data reaches the candidate replica.

    Either ``local_end`` is set (a replica of the predecessor lives on
    the candidate processor — single intra-processor communication, cost
    zero, not replicated) or ``arrivals`` lists the delivery time from
    every replica of the predecessor, with ``comms`` holding the planned
    transfers.

    Under link-failure tolerance each replica's transfer is carried over
    ``Npl + 1`` link-disjoint routes: ``arrivals`` then holds the
    *guaranteed* arrival per replica (the latest route copy — what any
    ``Npl`` link failures cannot delay past) and ``firsts`` the earliest
    copy per replica (the failure-free arrival).  At ``npl = 0`` the two
    coincide and ``firsts`` stays ``None``.
    """

    predecessor: str
    local_end: float | None = None
    arrivals: list[float] = field(default_factory=list)
    comms: list[PlannedComm] = field(default_factory=list)
    firsts: list[float] | None = None

    def earliest(self) -> float:
        """First possible arrival of this predecessor's data."""
        if self.local_end is not None:
            return self.local_end
        return min(self.arrivals if self.firsts is None else self.firsts)

    def worst_case(self, npf: int) -> float:
        """Latest arrival the replica may have to wait for, under ≤ npf failures.

        With a local replica the data is always there when the processor
        is alive.  Otherwise at least one of the ``npf + 1`` earliest
        senders survives any set of ``npf`` failures, so the worst-case
        wait is the ``(npf + 1)``-th earliest arrival (the paper's
        ``max`` over the ``Npf + 1`` replicas).  With ``npl >= 1`` each
        entry of ``arrivals`` is already that replica's guaranteed
        arrival under any ``npl`` link failures, so the same index rule
        bounds the combined processor+link worst case.
        """
        if self.local_end is not None:
            return self.local_end
        ordered = sorted(self.arrivals)
        index = min(npf, len(ordered) - 1)
        return ordered[index]


@dataclass
class PlacementPlan:
    """The full consequence of placing one replica on one processor."""

    operation: str
    processor: str
    duration: float
    processor_ready: float
    feeds: list[PredecessorFeed]
    npf: int
    _feeds_earliest: float | None = field(default=None, init=False, repr=False)
    _feeds_worst: float | None = field(default=None, init=False, repr=False)

    @property
    def feeds_earliest(self) -> float:
        """Latest over feeds of the first possible arrival (−inf if none).

        Feeds are fixed at planning time, so both aggregates are
        computed once, on first use.
        """
        if self._feeds_earliest is None:
            self._feeds_earliest = max(
                (feed.earliest() for feed in self.feeds), default=-math.inf
            )
        return self._feeds_earliest

    @property
    def feeds_worst(self) -> float:
        """Latest over feeds of the worst-case arrival (−inf if none)."""
        if self._feeds_worst is None:
            self._feeds_worst = max(
                (feed.worst_case(self.npf) for feed in self.feeds),
                default=-math.inf,
            )
        return self._feeds_worst

    @property
    def s_best(self) -> float:
        """Earliest start (first complete input set — paper's S_best)."""
        return max(self.processor_ready, self.feeds_earliest)

    @property
    def s_worst(self) -> float:
        """Earliest start in the worst failure case (paper's S_worst)."""
        return max(self.processor_ready, self.feeds_worst)


class PlacementPlanner:
    """Plans replica placements against the current schedule state."""

    def __init__(
        self,
        algorithm: AlgorithmGraph,
        architecture: Architecture,
        exec_times: ExecutionTimes,
        comm_times: CommunicationTimes,
        npf: int,
        npl: int = 0,
    ) -> None:
        self._algorithm = algorithm
        self._architecture = architecture
        self._exec_times = exec_times
        self._comm_times = comm_times
        self._npf = npf
        self._npl = npl

    def plan(
        self, operation: str, processor: str, schedule: Schedule
    ) -> PlacementPlan | None:
        """Plan placing the next replica of ``operation`` on ``processor``.

        Returns ``None`` when the pair is forbidden (``Exe = inf``) or
        the processor already hosts a replica of the operation.  All
        predecessors must already have at least one replica scheduled
        (guaranteed by the list-scheduling candidate rule).  Trial
        reservations go to a fresh :class:`LinkState` overlay, so
        planning never touches ``schedule``.
        """
        duration = self._exec_times.time_of(operation, processor)
        if duration == float("inf"):
            return None
        if schedule.replica_on(operation, processor) is not None:
            return None
        state = LinkState(schedule)
        feeds: list[PredecessorFeed] = []
        for predecessor in self._algorithm.predecessors(operation):
            feeds.append(
                self._plan_feed(predecessor, operation, processor, schedule, state)
            )
        return PlacementPlan(
            operation=operation,
            processor=processor,
            duration=duration,
            processor_ready=schedule.processor_available(processor),
            feeds=feeds,
            npf=self._npf,
        )

    def _plan_feed(
        self,
        predecessor: str,
        operation: str,
        processor: str,
        schedule: Schedule,
        state: LinkState,
    ) -> PredecessorFeed:
        local = schedule.replica_on(predecessor, processor)
        if local is not None:
            # §4.1 first case: one intra-processor communication, cost 0,
            # the remote replicas do not send at all.
            return PredecessorFeed(predecessor, local_end=local.end)
        feed = PredecessorFeed(predecessor)
        if self._npl:
            feed.firsts = []
        edge = (predecessor, operation)
        replicas = schedule.live_replicas(predecessor)
        # Relay-avoidance preference (npl >= 1): backup routes should not
        # relay through the hosts of the predecessor's other replicas,
        # otherwise one crash can silence a sender *and* another
        # sender's relay at once, voiding the combined npf+npl budget.
        sender_hosts = (
            frozenset(r.processor for r in replicas) if self._npl else frozenset()
        )
        for replica in replicas:
            first, guaranteed, comms = self._plan_transfer(
                edge, replica, processor, state, sender_hosts
            )
            feed.arrivals.append(guaranteed)
            if feed.firsts is not None:
                feed.firsts.append(first)
            feed.comms.extend(comms)
        if not feed.arrivals:
            raise ValueError(
                f"predecessor {predecessor!r} of {operation!r} has no replica; "
                f"candidate rule violated"
            )
        return feed

    def _plan_transfer(
        self,
        edge: tuple[str, str],
        producer: ScheduledOperation,
        processor: str,
        state: LinkState,
        sender_hosts: frozenset[str] = frozenset(),
    ) -> tuple[float, float, list[PlannedComm]]:
        """Plan the comms carrying ``edge`` from one replica to ``processor``.

        Returns ``(first, guaranteed, comms)``: the earliest arrival of
        any route copy (the failure-free delivery) and the latest (what
        no ``Npl`` link failures can delay past).  At ``npl = 0`` both
        are the end of the single chain.
        """
        if self._npl:
            return self._plan_replicated_transfer(
                edge, producer, processor, state, sender_hosts
            )
        direct = self._architecture.links_between(producer.processor, processor)
        if direct:
            best: tuple[float, float, str] | None = None
            for link in direct:
                duration = self._comm_times.time_of(edge, link.name)
                start, end = state.preview(link.name, producer.end, duration)
                if best is None or (end, link.name) < (best[1], best[2]):
                    best = (start, end, link.name)
            start, end, link_name = best
            state.reserve(link_name, producer.end, end - start)
            comm = PlannedComm(
                source=edge[0],
                target=edge[1],
                source_replica=producer.replica,
                link=link_name,
                start=start,
                end=end,
                source_processor=producer.processor,
                target_processor=processor,
                hop_index=0,
            )
            return end, end, [comm]
        # Multi-hop route: store-and-forward over the shortest hop path.
        hops = self._architecture.route_hops(producer.processor, processor)
        ready = producer.end
        comms: list[PlannedComm] = []
        for index, (origin, link, relay) in enumerate(hops):
            duration = self._comm_times.time_of(edge, link.name)
            start, end = state.reserve(link.name, ready, duration)
            comms.append(
                PlannedComm(
                    source=edge[0],
                    target=edge[1],
                    source_replica=producer.replica,
                    link=link.name,
                    start=start,
                    end=end,
                    source_processor=origin,
                    target_processor=relay,
                    hop_index=index,
                )
            )
            ready = end
        return ready, ready, comms

    def _plan_replicated_transfer(
        self,
        edge: tuple[str, str],
        producer: ScheduledOperation,
        processor: str,
        state: LinkState,
        sender_hosts: frozenset[str] = frozenset(),
    ) -> tuple[float, float, list[PlannedComm]]:
        """One copy of the transfer per link-disjoint route (``Npl + 1``).

        Any ``Npl`` broken links leave at least one copy's route fully
        intact, so the data is guaranteed by the latest copy's delivery;
        in the failure-free run the earliest copy wins (the simulator
        starts consumers on their first delivered arrival).  Routes come
        from the architecture's :class:`~repro.hardware.routing
        .RoutePlanner` — relays avoid the other sender replicas' hosts
        when possible — and raise a clear error when the topology cannot
        provide ``Npl + 1`` disjoint routes.
        """
        routes = self._architecture.route_planner.disjoint_routes(
            producer.processor,
            processor,
            self._npl + 1,
            avoid=sender_hosts - {producer.processor},
        )
        comms: list[PlannedComm] = []
        first = math.inf
        guaranteed = -math.inf
        for route_index, hops in enumerate(routes):
            ready = producer.end
            for index, (origin, link, relay) in enumerate(hops):
                duration = self._comm_times.time_of(edge, link.name)
                start, end = state.reserve(link.name, ready, duration)
                comms.append(
                    PlannedComm(
                        source=edge[0],
                        target=edge[1],
                        source_replica=producer.replica,
                        link=link.name,
                        start=start,
                        end=end,
                        source_processor=origin,
                        target_processor=relay,
                        hop_index=index,
                        route=route_index,
                    )
                )
                ready = end
            first = min(first, ready)
            guaranteed = max(guaranteed, ready)
        return first, guaranteed, comms


def commit_plan(
    plan: PlacementPlan,
    schedule: Schedule,
    start: float | None = None,
    duplicated: bool = False,
) -> ScheduledOperation:
    """Write a placement plan into the schedule.

    The replica starts at ``start`` (default: the plan's ``S_best``, per
    micro-step Ð) and all planned comms are placed with the new replica's
    index as their destination.

    The compiled kernel's ``SchedulingKernel._commit`` mirrors this
    function over flat hop tuples (same placement order, same duration
    re-derivation); change the two together.
    """
    event = schedule.place_operation(
        plan.operation,
        plan.processor,
        plan.s_best if start is None else start,
        plan.duration,
        duplicated=duplicated,
    )
    for feed in plan.feeds:
        for comm in feed.comms:
            schedule.place_comm(
                source=comm.source,
                target=comm.target,
                source_replica=comm.source_replica,
                target_replica=event.replica,
                link=comm.link,
                start=comm.start,
                duration=comm.end - comm.start,
                source_processor=comm.source_processor,
                target_processor=comm.target_processor,
                hop_index=comm.hop_index,
                route=comm.route,
            )
    return event


# ----------------------------------------------------------------------
# E10: the exhaustive best-assignment search over the object planner
# ----------------------------------------------------------------------

def exhaustive_reference(
    problem: ProblemSpec, max_assignments: int = 500_000
) -> ExhaustiveResult:
    """The exhaustive search as it ran over :class:`PlacementPlanner`.

    The oracle of :func:`repro.baselines.exhaustive.schedule_exhaustive`:
    every ``Npf + 1``-processor assignment per operation is built into a
    fresh schedule (operations in topological order, replicas planned
    with single routes, ``Npl`` 0), an assignment is abandoned once a
    replica ends at or after the best makespan so far, and the first
    minimal assignment wins.
    """
    problem.validate()
    algorithm = problem.algorithm
    architecture = problem.architecture
    npf = problem.npf
    planner = PlacementPlanner(
        algorithm, architecture, problem.exec_times, problem.comm_times, npf
    )
    order = algorithm.topological_order()
    choices = []
    for operation in order:
        allowed = problem.exec_times.allowed_processors(
            operation, architecture.processor_names()
        )
        if len(allowed) < npf + 1:
            raise InfeasibleReplicationError(
                f"operation {operation!r} can run on {len(allowed)} "
                f"processor(s), {npf + 1} required"
            )
        choices.append(list(itertools.combinations(allowed, npf + 1)))
    total = math.prod(len(c) for c in choices)
    if total > max_assignments:
        raise SchedulingError(
            f"assignment space has {total} points, more than the "
            f"bound {max_assignments}; use FTBAR for problems this big"
        )
    best_schedule: Schedule | None = None
    best_makespan = math.inf
    for assignment in itertools.product(*choices):
        schedule = Schedule(
            processors=architecture.processor_names(),
            links=architecture.link_names(),
            npf=npf,
            name=f"{problem.name}-exhaustive",
        )
        pruned = False
        for operation, processors in zip(order, assignment):
            for processor in processors:
                plan = planner.plan(operation, processor, schedule)
                event = commit_plan(plan, schedule)
                if event.end >= best_makespan:
                    pruned = True
                    break
            if pruned:
                break
        if pruned:
            continue
        makespan = schedule.makespan()
        if makespan < best_makespan:
            best_makespan = makespan
            best_schedule = schedule
    assert best_schedule is not None
    return ExhaustiveResult(
        schedule=best_schedule,
        makespan=best_makespan,
        assignments_total=total,
    )
