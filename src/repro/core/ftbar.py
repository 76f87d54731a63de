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

Engine
------
The compiled kernel (:mod:`repro.core.kernel`) runs every problem.  It
interns the problem to dense integer ids once, maintains the candidate
list with indegree counters (:class:`~repro.core.kernel.CompiledReadySet`:
an operation becomes a candidate when its last unscheduled predecessor,
or the anchor half of a pinned memory half, is placed; sorted ids are
the sorted-name candidate order, so tie-breaks are unchanged) and caches
every trial plan, recomputing only the plans a committed macro-step
could have changed.  The dirty-set rule: a plan for ``(o, p)`` reads the
timeline of ``p``, the links its feeds reserved and the replica sets of
``o``'s predecessors; a macro-step mutates the timelines of the
processors that received replicas, the links its comms landed on and
the replica sets of the operations that gained replicas.  A plan whose
dependencies are disjoint from that dirty set would be recomputed
identically, so serving it from the cache is exact.

The paper-literal loop — rescan the candidates, plan every pair from
scratch, place through ``Minimize_start_time`` — is kept as the
kernel's test oracle (``tests/ftbar_oracle.py``): schedules, observer
:class:`StepRecord` streams and content hashes of the two are
bit-identical (``tests/test_engine_equivalence.py`` and
``tests/test_compiled_kernel.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

from repro import obs
from repro._record import FrozenRecord, Record
from repro.exceptions import SchedulingError
from repro.graphs.algorithm import AlgorithmGraph
from repro.core.compile import CompiledProblem, validated_once
from repro.core.kernel import CompiledReadySet, DuplicationStats, SchedulingKernel
from repro.core.options import SchedulerOptions
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.constraints import RealTimeConstraints, RtcReport
from repro.timing.exec_times import ExecutionTimes


class FTBARStats(Record):
    """Run statistics, used by the complexity experiment (E6).

    ``pressure_evaluations`` counts *computed* trial plans; the kernel's
    plan cache serves the rest (``cache_hits``).  ``symmetry_pruned``
    counts the ``(candidate, processor)`` pairs the compiled kernel
    skipped because a verified topology automorphism made their σ a
    bit-identical copy of an orbit representative's (0 with
    ``SchedulerOptions.symmetry=False``).
    """

    _fields = (
        "steps", "pressure_evaluations", "cache_hits", "duplication",
        "wall_time_s", "symmetry_pruned",
    )

    def __init__(
        self,
        steps: int = 0,
        pressure_evaluations: int = 0,
        cache_hits: int = 0,
        duplication: DuplicationStats | None = None,
        wall_time_s: float = 0.0,
        symmetry_pruned: int = 0,
    ) -> None:
        self.steps = steps
        self.pressure_evaluations = pressure_evaluations
        self.cache_hits = cache_hits
        self.duplication = (
            DuplicationStats() if duplication is None else duplication
        )
        self.wall_time_s = wall_time_s
        self.symmetry_pruned = symmetry_pruned


class StepRecord(FrozenRecord):
    """What one FTBAR macro-step decided (for observers, section 4.3).

    Emitted after the selected operation has been placed, so the
    ``makespan`` field reflects the schedule state the paper's Figures
    5 and 6 show "after step n".
    """

    _fields = (
        "step", "candidates", "operation", "processors", "urgency",
        "pressures", "makespan",
    )

    def __init__(
        self,
        step: int,
        candidates: tuple[str, ...],
        operation: str,
        processors: tuple[str, ...],
        urgency: float,
        pressures: Mapping[tuple[str, str], float],
        makespan: float,
    ) -> None:
        self.__dict__.update(
            step=step,
            candidates=candidates,
            operation=operation,
            processors=processors,
            urgency=urgency,
            pressures=pressures,
            makespan=makespan,
        )


class FTBARResult(Record):
    """Everything FTBAR returns: the schedule, the ``Rtc`` verdict, stats."""

    _fields = (
        "schedule", "rtc_report", "stats", "expanded_algorithm",
        "memory_pairs",
    )

    def __init__(
        self,
        schedule: Schedule,
        rtc_report: RtcReport,
        stats: FTBARStats,
        expanded_algorithm: AlgorithmGraph,
        memory_pairs: Mapping[str, tuple[str, str]],
    ) -> None:
        self.schedule = schedule
        self.rtc_report = rtc_report
        self.stats = stats
        self.expanded_algorithm = expanded_algorithm
        self.memory_pairs = memory_pairs

    @property
    def makespan(self) -> float:
        """Completion date of the produced schedule."""
        return self.schedule.makespan()

    @property
    def rtc_satisfied(self) -> bool:
        """True when the real-time constraints hold (paper's 'indication')."""
        return self.rtc_report.satisfied


class FTBARScheduler:
    """One-shot scheduler object; build it with a problem, call :meth:`run`."""

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
        self._npl = problem.npl
        self._architecture = problem.architecture
        try:
            algorithm, pairs = problem.algorithm.expand_memories()
            self._algorithm = algorithm
            self._memory_pairs = dict(pairs)
            exec_times, comm_times = _expand_timing(problem, self._memory_pairs)
            with obs.span("ftbar.compile", problem=problem.name):
                self._compiled = CompiledProblem(
                    self._algorithm,
                    self._architecture,
                    exec_times,
                    comm_times,
                    self._npf,
                    self._npl,
                    {write: read for read, write in self._memory_pairs.values()},
                )
        except Exception:
            # Compilation assumes a well-formed problem.  Validate now
            # to surface the canonical TimingError / SchedulingError; a
            # problem that *passes* hit a genuine compilation failure,
            # which must not be masked.
            problem.validate()
            raise
        # Content-addressed validation: the compiled path derives a
        # hash of everything validate() cross-checks, so each distinct
        # problem content is validated exactly once.
        validated_once(self._compiled, problem)

    @property
    def compiled(self) -> CompiledProblem:
        """The compiled tables this scheduler runs on."""
        return self._compiled

    @property
    def options(self) -> SchedulerOptions:
        """The options this scheduler runs with (defaults filled in)."""
        return self._options

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
        ) as span:
            result = self._run(tracer)
            stats = result.stats
            span.set(steps=stats.steps, makespan=result.schedule.makespan())
        metrics = obs.metrics
        metrics.inc("ftbar.runs")
        metrics.inc("ftbar.steps", stats.steps)
        metrics.inc("ftbar.pressure_evaluations", stats.pressure_evaluations)
        metrics.inc("ftbar.cache_hits", stats.cache_hits)
        metrics.inc("ftbar.symmetry_pruned", stats.symmetry_pruned)
        metrics.inc(
            "ftbar.duplication_attempts", stats.duplication.attempts
        )
        metrics.inc("ftbar.duplication_pruned", stats.duplication.pruned)
        metrics.observe("ftbar.run_s", stats.wall_time_s)
        return result

    def makespan(self) -> float:
        """The makespan :meth:`run` would report, without the schedule.

        Runs the same macro-step loop and reads the kernel's running
        makespan, which mirrors the schedule's arithmetic exactly; no
        event is written and ``Rtc`` is not checked.  Callers that need
        only the length (the non-FT baseline) skip materialization.
        """
        kernel, _, _ = self._macro_steps(obs.tracer())
        return kernel.makespan

    def _run(self, tracer) -> FTBARResult:
        started = time.perf_counter()
        kernel, schedule, stats = self._macro_steps(tracer)
        # The kernel buffered its placements; write the survivors into
        # the real schedule now that the run is over.
        with (
            tracer.span("kernel.materialize")
            if tracer is not None
            else obs.NOOP_SPAN
        ):
            kernel.materialize()
        stats.wall_time_s = time.perf_counter() - started
        rtc_report = _expanded_rtc(
            self._problem.rtc, self._memory_pairs
        ).check(schedule)
        return FTBARResult(
            schedule=schedule,
            rtc_report=rtc_report,
            stats=stats,
            expanded_algorithm=self._algorithm,
            memory_pairs=self._memory_pairs,
        )

    def _macro_steps(
        self, tracer
    ) -> tuple[SchedulingKernel, Schedule, FTBARStats]:
        """The macro-step loop on the compiled kernel.

        Returns the kernel with every placement buffered, the (still
        empty) schedule it materializes into, and the run statistics.
        """
        compiled = self._compiled
        observer = self._observer
        schedule = Schedule(
            processors=self._architecture.processor_names(),
            links=self._architecture.link_names(),
            npf=self._npf,
            npl=self._npl,
            name=f"{self._problem.name}-ftbar",
        )
        stats = FTBARStats()
        kernel = SchedulingKernel(
            compiled,
            schedule,
            processor_aware=self._options.processor_aware_pressure,
            duplication=self._options.duplication,
            symmetry=self._options.symmetry,
        )
        # Candidate maintenance on dense ids: sorted ids are the
        # sorted-name candidate order by construction.
        ready = CompiledReadySet(compiled)
        op_names = compiled.op_names
        # Phase times add up over the run and reach a tracer as one
        # aggregate per phase; the clock reads cost well under 1 % of a
        # step, so untraced runs take the same path.
        clock = time.perf_counter
        sweep_s = place_s = 0.0
        while True:
            candidate_ids = ready.candidates()
            if not candidate_ids:
                break
            stats.steps += 1
            started = clock()
            operation, processors, urgency, pressures = kernel.select_ids(
                candidate_ids, observer is not None
            )
            kernel.begin_step()
            swept = clock()
            # Micro-step Â: each kept processor receives its replica
            # through Minimize_start_time, in rank order.
            for processor in processors:
                kernel.place(operation, processor)
            ready.mark_scheduled(compiled.op_ids[operation])
            kernel.forget(operation)
            kernel.invalidate_step()
            placed = clock()
            sweep_s += swept - started
            place_s += placed - swept
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
        if tracer is not None:
            tracer.aggregate(
                "kernel.sweep", sweep_s, stats.steps, disjoint=True
            )
            tracer.aggregate(
                "kernel.place", place_s, stats.steps, disjoint=True
            )
        # Every step places one new operation.
        if stats.steps != len(self._algorithm):
            kernel.materialize()
            missing = sorted(
                set(self._algorithm.operation_names())
                - set(schedule.scheduled_operations())
            )
            raise SchedulingError(
                f"scheduling stalled; unplaced operations: {missing}"
            )
        stats.pressure_evaluations = kernel.evaluations
        stats.cache_hits = kernel.hits
        stats.duplication = kernel.dup_stats
        stats.symmetry_pruned = kernel.symmetry_pruned
        return kernel, schedule, stats


def _expanded_rtc(
    rtc: RealTimeConstraints, memory_pairs: Mapping[str, tuple[str, str]]
) -> RealTimeConstraints:
    """Translate operation deadlines onto the memory-expanded graph."""
    if not memory_pairs or not rtc.operation_deadlines:
        return rtc
    deadlines: dict[str, float] = {}
    for operation, deadline in rtc.operation_deadlines.items():
        if operation in memory_pairs:
            # The register is "done" when its write half has stored the
            # new value.
            deadlines[memory_pairs[operation][1]] = deadline
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
