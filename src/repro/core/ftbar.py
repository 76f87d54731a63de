"""FTBAR — the Fault-Tolerance Based Active Replication heuristic.

This is the paper's contribution (section 4): a greedy list-scheduling
heuristic that, at every step,

À computes the schedule pressure of each candidate operation on each
  processor and keeps, per candidate, the ``Npf + 1`` processors with the
  smallest pressure;

Á selects the most *urgent* candidate — the one whose kept pressures
  reach the maximum (min over processors, max over operations);

Â places the selected operation on its ``Npf + 1`` best processors
  through ``Minimize_start_time`` (LIP duplication), emitting the comms
  implied by active replication: every replica of every predecessor
  sends to every replica of the operation, except when a predecessor
  replica is co-located (single zero-cost intra-processor comm, §4.1);

Ã updates the candidate list with the operations whose predecessors are
  now all scheduled.

Memory operations are expanded into pinned read/write halves before
scheduling (see :meth:`repro.graphs.AlgorithmGraph.expand_memories`), and
the real-time constraints are checked on the finished schedule — the
scheduler reports ``Rtc`` satisfaction rather than failing, so the
designer can decide to add hardware or relax the constraints.

Engines
-------
Two engines run the heuristic, chosen from the input alone:

* **The compiled kernel** (:mod:`repro.core.kernel`) runs every
  append-mode problem.  It interns the problem to dense integer ids
  once, maintains the candidate list with indegree counters
  (:class:`~repro.core.kernel.CompiledReadySet`: an operation becomes a
  candidate when its last unscheduled predecessor, or the anchor half
  of a pinned memory half, is placed; sorted ids are the sorted-name
  candidate order, so tie-breaks are unchanged) and caches every trial
  plan, recomputing only the plans a committed macro-step could have
  changed.  The dirty-set rule: a plan for ``(o, p)`` reads the
  timeline of ``p``, the links its feeds reserved and the replica sets
  of ``o``'s predecessors; a macro-step mutates the timelines of the
  processors that received replicas, the links its comms landed on and
  the replica sets of the operations that gained replicas.  A plan
  whose dependencies are disjoint from that dirty set would be
  recomputed identically, so serving it from the cache is exact.
* **The reference engine** (:func:`ftbar_reference`) is the
  paper-literal loop: rescan the candidates, plan every pair from
  scratch (:meth:`~repro.core.pressure.PressureCalculator.pressure`),
  place through
  :class:`~repro.core.minimize.StartTimeMinimizer`.  It runs
  ``link_insertion`` problems, whose gap insertion the kernel's
  append-mode arrays do not model, and is the kernel's test oracle:
  schedules, observer :class:`StepRecord` streams and content hashes of
  the two engines are bit-identical (``tests/test_engine_equivalence.py``
  and ``tests/test_compiled_kernel.py``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro import obs
from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.graphs.algorithm import AlgorithmGraph
from repro.core.compile import CompiledProblem, validated_once
from repro.core.kernel import CompiledReadySet, SchedulingKernel
from repro.core.minimize import DuplicationStats, StartTimeMinimizer
from repro.core.options import SchedulerOptions
from repro.core.parallel import resolve_workers
from repro.core.placement import PlacementPlanner, commit_plan
from repro.core.pressure import PressureCalculator
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.constraints import RealTimeConstraints, RtcReport
from repro.timing.exec_times import ExecutionTimes


@dataclass
class FTBARStats:
    """Run statistics, used by the complexity experiment (E6).

    ``pressure_evaluations`` counts *computed* trial plans; the kernel's
    plan cache serves the rest (``cache_hits``, 0 on the reference
    engine, which plans every pair every step).
    """

    steps: int = 0
    pressure_evaluations: int = 0
    cache_hits: int = 0
    duplication: DuplicationStats = field(default_factory=DuplicationStats)
    wall_time_s: float = 0.0
    #: Trial plans served by the compiled kernel's reused scratch
    #: buffers (0 on the reference engine, which allocates a fresh
    #: overlay per evaluation) — recorded by ``benchmarks/bench_runtime.py``.
    buffer_reuses: int = 0
    #: ``(candidate, processor)`` pairs the compiled kernel skipped
    #: because a verified topology automorphism made their σ a
    #: bit-identical copy of an orbit representative's (0 on the
    #: reference engine and with ``SchedulerOptions.symmetry=False``).
    symmetry_pruned: int = 0


@dataclass(frozen=True)
class StepRecord:
    """What one FTBAR macro-step decided (for observers, section 4.3).

    Emitted after the selected operation has been placed, so the
    ``makespan`` field reflects the schedule state the paper's Figures
    5 and 6 show "after step n".
    """

    step: int
    candidates: tuple[str, ...]
    operation: str
    processors: tuple[str, ...]
    urgency: float
    pressures: Mapping[tuple[str, str], float]
    makespan: float


@dataclass
class FTBARResult:
    """Everything FTBAR returns: the schedule, the ``Rtc`` verdict, stats."""

    schedule: Schedule
    rtc_report: RtcReport
    stats: FTBARStats
    expanded_algorithm: AlgorithmGraph
    memory_pairs: Mapping[str, tuple[str, str]]

    @property
    def makespan(self) -> float:
        """Completion date of the produced schedule."""
        return self.schedule.makespan()

    @property
    def rtc_satisfied(self) -> bool:
        """True when the real-time constraints hold (paper's 'indication')."""
        return self.rtc_report.satisfied


class FTBARScheduler:
    """One-shot scheduler object; build it with a problem, call :meth:`run`.

    Runs the compiled kernel, or the reference engine when
    ``options.link_insertion`` is set (see the module docstring).
    """

    #: True on the subclass behind :func:`ftbar_reference`, which runs
    #: the reference engine on append-mode problems too.
    _reference_engine = False

    def __init__(
        self,
        problem: ProblemSpec,
        options: SchedulerOptions | None = None,
        observer: "Callable[[StepRecord], None] | None" = None,
    ) -> None:
        self._observer = observer
        self._problem = problem
        self._options = options or SchedulerOptions()
        self._npf = problem.npf
        self._npl = (
            self._options.npl if self._options.npl is not None else problem.npl
        )
        if self._npl < 0:
            raise SchedulingError(f"npl must be >= 0, got {self._npl}")
        compiling = not (self._reference_engine or self._options.link_insertion)
        self._compiled: CompiledProblem | None = None
        if not compiling:
            problem.validate()
        self._architecture = problem.architecture
        try:
            algorithm, pairs = problem.algorithm.expand_memories()
            self._algorithm = algorithm
            self._memory_pairs = dict(pairs)
            self._pins: dict[str, str] = {
                write: read for read, write in self._memory_pairs.values()
            }
            self._exec_times, self._comm_times = _expand_timing(
                problem, self._memory_pairs
            )
            if compiling:
                with obs.span("ftbar.compile", problem=problem.name):
                    self._compiled = CompiledProblem(
                        self._algorithm,
                        self._architecture,
                        self._exec_times,
                        self._comm_times,
                        self._npf,
                        self._npl,
                        self._pins,
                    )
        except Exception:
            if not compiling:
                raise
            # Compilation assumes a well-formed problem.  Validate now
            # to surface the canonical TimingError / SchedulingError; a
            # problem that *passes* hit a genuine compilation failure,
            # which must not be masked.
            problem.validate()
            raise
        if compiling:
            # Content-addressed validation: the compiled path derives a
            # hash of everything validate() cross-checks, so each
            # distinct problem content is validated exactly once.
            validated_once(self._compiled, problem)
        if self._npl >= 1 and len(problem.architecture) > 1:
            # The problem's own npl was checked by validate(); an
            # options-level override needs the same feasibility gate.
            problem.architecture.route_planner.require_disjoint_routes(
                self._npl + 1
            )
        # The reference-engine machinery is built on demand (properties
        # below): a kernel run never touches it, and its construction
        # is a measurable fraction of a small-N run.
        self._planner_obj: PlacementPlanner | None = None
        self._pressure_obj: PressureCalculator | None = None
        self._minimizer_obj: StartTimeMinimizer | None = None

    @property
    def _planner(self) -> PlacementPlanner:
        planner = self._planner_obj
        if planner is None:
            planner = self._planner_obj = PlacementPlanner(
                self._algorithm,
                self._architecture,
                self._exec_times,
                self._comm_times,
                self._npf,
                link_insertion=self._options.link_insertion,
                npl=self._npl,
            )
        return planner

    @property
    def _pressure(self) -> PressureCalculator:
        pressure = self._pressure_obj
        if pressure is None:
            pressure = self._pressure_obj = PressureCalculator(
                self._algorithm,
                self._architecture,
                self._exec_times,
                self._comm_times,
                self._npf,
                self._planner,
                processor_aware=self._options.processor_aware_pressure,
            )
        return pressure

    @property
    def _minimizer(self) -> StartTimeMinimizer:
        minimizer = self._minimizer_obj
        if minimizer is None:
            minimizer = self._minimizer_obj = StartTimeMinimizer(
                planner=self._planner,
                exec_times=self._exec_times,
                duplication=self._options.duplication,
            )
        return minimizer

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> FTBARResult:
        """Execute the FTBAR macro-steps until every operation is placed."""
        tracer = obs.tracer()
        if tracer is None:
            return self._run(None)
        with tracer.span(
            "ftbar.run",
            problem=self._problem.name,
            operations=len(self._algorithm),
            npf=self._npf,
            npl=self._npl,
            engine="kernel" if self._compiled is not None else "reference",
        ) as span:
            result = self._run(tracer)
            stats = result.stats
            span.set(steps=stats.steps, makespan=result.schedule.makespan())
        metrics = obs.metrics
        metrics.inc("ftbar.runs")
        metrics.inc("ftbar.steps", stats.steps)
        metrics.inc("ftbar.pressure_evaluations", stats.pressure_evaluations)
        metrics.inc("ftbar.cache_hits", stats.cache_hits)
        metrics.inc("ftbar.buffer_reuses", stats.buffer_reuses)
        metrics.inc("ftbar.symmetry_pruned", stats.symmetry_pruned)
        metrics.inc(
            "ftbar.duplication_attempts", stats.duplication.attempts
        )
        metrics.observe("ftbar.run_s", stats.wall_time_s)
        return result

    def _run(self, tracer) -> FTBARResult:
        started = time.perf_counter()
        schedule = Schedule(
            processors=self._architecture.processor_names(),
            links=self._architecture.link_names(),
            npf=self._npf,
            npl=self._npl,
            name=f"{self._problem.name}-ftbar",
        )
        stats = FTBARStats()
        if self._compiled is not None:
            self._run_kernel(schedule, stats, tracer)
        else:
            self._run_reference(schedule, stats, tracer)
        # Every step places one new operation.
        if stats.steps != len(self._algorithm):
            missing = sorted(
                set(self._algorithm.operation_names())
                - set(schedule.scheduled_operations())
            )
            raise SchedulingError(
                f"scheduling stalled; unplaced operations: {missing}"
            )
        stats.wall_time_s = time.perf_counter() - started
        rtc_report = self._expanded_rtc().check(schedule)
        return FTBARResult(
            schedule=schedule,
            rtc_report=rtc_report,
            stats=stats,
            expanded_algorithm=self._algorithm,
            memory_pairs=self._memory_pairs,
        )

    def _run_kernel(self, schedule: Schedule, stats: FTBARStats, tracer) -> None:
        """The macro-step loop on the compiled kernel."""
        compiled = self._compiled
        observer = self._observer
        kernel = SchedulingKernel(
            compiled,
            schedule,
            processor_aware=self._options.processor_aware_pressure,
            duplication=self._options.duplication,
            symmetry=self._options.symmetry,
            workers=resolve_workers(self._options.sweep_workers),
        )
        if tracer is not None:
            # Sub-step phases too hot to span individually (the
            # replay-repair pool pass) accumulate totals here and are
            # emitted as aggregate spans after the loop.
            kernel.phase_times = {}
        # Candidate maintenance on dense ids: sorted ids are the
        # sorted-name candidate order by construction.
        ready = CompiledReadySet(compiled)
        op_names = compiled.op_names
        while True:
            candidate_ids = ready.candidates()
            if not candidate_ids:
                break
            stats.steps += 1
            with (
                tracer.span("kernel.sweep", step=stats.steps)
                if tracer is not None
                else obs.NOOP_SPAN
            ):
                operation, processors, urgency, pressures = kernel.select_ids(
                    candidate_ids, observer is not None
                )
            kernel.begin_step()
            with (
                tracer.span("kernel.place", step=stats.steps)
                if tracer is not None
                else obs.NOOP_SPAN
            ):
                # Macro-step trial batching: the kernel plans the whole
                # step's Npf + 1 trials in one pass where that is exact
                # (see SchedulingKernel.place_step).
                kernel.place_step(operation, processors)
            ready.mark_scheduled(compiled.op_ids[operation])
            kernel.forget(operation)
            kernel.invalidate_step()
            if observer is not None:
                observer(
                    StepRecord(
                        step=stats.steps,
                        candidates=tuple(op_names[o] for o in candidate_ids),
                        operation=operation,
                        processors=processors,
                        urgency=urgency,
                        pressures=pressures,
                        makespan=kernel.makespan,
                    )
                )
        # The kernel buffered its placements; write the survivors into
        # the real schedule now that the run is over.
        with (
            tracer.span("kernel.materialize")
            if tracer is not None
            else obs.NOOP_SPAN
        ):
            kernel.materialize()
        if tracer is not None and kernel.phase_times:
            for name, (total, count) in sorted(kernel.phase_times.items()):
                tracer.aggregate(name, total, count)
        stats.pressure_evaluations = kernel.evaluations
        stats.cache_hits = kernel.hits
        stats.duplication = kernel.dup_stats
        stats.buffer_reuses = kernel.buffer_reuses
        stats.symmetry_pruned = kernel.symmetry_pruned

    def _run_reference(
        self, schedule: Schedule, stats: FTBARStats, tracer
    ) -> None:
        """The paper-literal macro-step loop."""
        observer = self._observer
        scheduled: set[str] = set()
        while True:
            candidates = self._candidates(scheduled)
            if not candidates:
                break
            stats.steps += 1
            with (
                tracer.span("kernel.sweep", step=stats.steps)
                if tracer is not None
                else obs.NOOP_SPAN
            ):
                operation, processors, urgency, pressures = self._select(
                    candidates, schedule
                )
            with (
                tracer.span("kernel.place", step=stats.steps)
                if tracer is not None
                else obs.NOOP_SPAN
            ):
                for processor in processors:
                    self._place(operation, processor, schedule)
            scheduled.add(operation)
            if observer is not None:
                observer(
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
        stats.pressure_evaluations = self._pressure.evaluations
        stats.duplication = self._minimizer.stats

    # ------------------------------------------------------------------
    # candidate management (macro-step Ã)
    # ------------------------------------------------------------------
    def _candidates(self, scheduled: set[str]) -> list[str]:
        """Operations whose predecessors (and pin anchors) are all placed."""
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

    # ------------------------------------------------------------------
    # selection (macro-steps À and Á)
    # ------------------------------------------------------------------
    def _select(
        self, candidates: list[str], schedule: Schedule
    ) -> tuple[str, tuple[str, ...], float, dict[tuple[str, str], float]]:
        """Pick the most urgent candidate and its ``Npf + 1`` processors."""
        best_choice: tuple[float, str, tuple[str, ...]] | None = None
        pressures: dict[tuple[str, str], float] = {}
        evaluate = self._pressure.pressure
        infinity = math.inf
        for operation in candidates:
            processors = self._processor_pool(operation, schedule)
            ranked: list[tuple[float, str]] = []
            for processor in processors:
                sigma = evaluate(operation, processor, schedule)
                pressures[(operation, processor)] = sigma
                if sigma != infinity:
                    ranked.append((sigma, processor))
            ranked.sort()
            required = self._npf + 1
            if len(ranked) < required:
                raise InfeasibleReplicationError(
                    f"operation {operation!r} can run on {len(ranked)} "
                    f"processor(s), {required} required to tolerate "
                    f"{self._npf} failure(s)"
                )
            kept = ranked[:required]
            urgency = kept[-1][0]
            key = (urgency, operation)
            if best_choice is None or (
                key[0] > best_choice[0]
                or (key[0] == best_choice[0] and key[1] < best_choice[1])
            ):
                best_choice = (
                    urgency,
                    operation,
                    tuple(processor for _, processor in kept),
                )
        assert best_choice is not None
        return best_choice[1], best_choice[2], best_choice[0], pressures

    def _processor_pool(self, operation: str, schedule: Schedule) -> tuple[str, ...]:
        """Processors considered for one candidate.

        A pinned memory half must live exactly where its anchor half
        lives; every other operation may go anywhere the ``Dis``
        constraints allow.
        """
        anchor = self._pins.get(operation)
        if anchor is None:
            return self._architecture.processor_names()
        replicas = schedule.replicas_of(anchor)
        return tuple(sorted(r.processor for r in replicas))

    # ------------------------------------------------------------------
    # placement (macro-step Â)
    # ------------------------------------------------------------------
    def _place(self, operation: str, processor: str, schedule: Schedule) -> None:
        if operation in self._pins:
            # Memory halves are placed directly: duplicating register
            # halves would break the read/write co-location invariant.
            plan = self._planner.plan(operation, processor, schedule)
            if plan is None:
                raise InfeasibleReplicationError(
                    f"memory half {operation!r} is forbidden on {processor!r} "
                    f"where its register lives"
                )
            commit_plan(plan, schedule)
            return
        self._minimizer.place(operation, processor, schedule)

    # ------------------------------------------------------------------
    # Rtc translation for expanded memories
    # ------------------------------------------------------------------
    def _expanded_rtc(self) -> RealTimeConstraints:
        rtc = self._problem.rtc
        if not self._memory_pairs or not rtc.operation_deadlines:
            return rtc
        deadlines: dict[str, float] = {}
        for operation, deadline in rtc.operation_deadlines.items():
            if operation in self._memory_pairs:
                # The register is "done" when its write half has stored
                # the new value.
                deadlines[self._memory_pairs[operation][1]] = deadline
            else:
                deadlines[operation] = deadline
        return RealTimeConstraints(
            global_deadline=rtc.global_deadline,
            operation_deadlines=deadlines,
        )


def _expand_timing(
    problem: ProblemSpec,
    pairs: Mapping[str, tuple[str, str]],
) -> tuple[ExecutionTimes, CommunicationTimes]:
    """Derive timing tables for the memory-expanded graph.

    Both halves of a memory inherit the memory's tabulated execution
    time (reading and writing the register are the same local access),
    and edges are renamed onto the halves.
    """
    if not pairs:
        return problem.exec_times, problem.comm_times
    exec_times = problem.exec_times.copy()
    for memory, (read, write) in pairs.items():
        for processor in problem.architecture.processor_names():
            duration = problem.exec_times.time_of(memory, processor)
            exec_times.set(read, processor, duration)
            exec_times.set(write, processor, duration)
    comm_times = CommunicationTimes()
    renames: dict[str, tuple[str, str]] = dict(pairs)
    for (edge, link), duration in problem.comm_times.entries().items():
        source, target = edge
        if source in renames:
            source = renames[source][0]
        if target in renames:
            target = renames[target][1]
        comm_times.set((source, target), link, duration)
    return exec_times, comm_times


def schedule_ftbar(
    problem: ProblemSpec,
    options: SchedulerOptions | None = None,
    observer: Callable[[StepRecord], None] | None = None,
) -> FTBARResult:
    """Convenience one-call API: build the scheduler and run it.

    ``observer`` (if given) is called once per macro-step with a
    :class:`StepRecord`, which is how the step-by-step walkthrough of
    section 4.3 (Figures 5 and 6) is reproduced.
    """
    return FTBARScheduler(problem, options, observer=observer).run()


def ftbar_reference(
    problem: ProblemSpec,
    options: SchedulerOptions | None = None,
    observer: Callable[[StepRecord], None] | None = None,
) -> FTBARResult:
    """Run the paper-literal reference engine on any problem.

    The engine :func:`schedule_ftbar` uses for ``link_insertion`` runs,
    here forced for append-mode problems too: it is the oracle the
    compiled kernel is tested against (identical schedules, observer
    streams and content hashes), at the cost of replanning every
    candidate pair every step.
    """
    scheduler = _ReferenceScheduler(problem, options, observer=observer)
    return scheduler.run()


class _ReferenceScheduler(FTBARScheduler):
    _reference_engine = True
