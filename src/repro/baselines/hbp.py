"""HBP — Height-Based Partitioning (Hashimoto, Tsuchiya, Kikuno 2002).

The paper compares FTBAR against HBP, "the closest related work": a
fault-tolerant scheduling heuristic that duplicates every task (exactly
two replicas, tolerating one processor failure) and schedules tasks
level by level, the levels being the *heights* of the task graph.

This re-implementation follows the published description:

* tasks are partitioned by height (longest path to a sink) and processed
  from the highest group down, which respects precedence;
* inside a group, tasks go in decreasing average execution time;
* each task's two replicas are placed by enumerating every **ordered
  processor pair** ``(p1, p2)``, ``p1 ≠ p2``, and keeping the pair that
  minimises the later completion of the two replicas — this exhaustive
  pair search is why "HBP investigates more possibilities than FTBAR
  when selecting the processor" (section 6.2), and why it is slower;
* replicas exchange data exactly like FTBAR replicas do (every replica
  of a predecessor sends to every replica of the task unless co-located),
  so the produced schedules are validated by the same invariants.

HBP assumes a homogeneous architecture; the implementation accepts any
tables but the comparison harness generates homogeneous ones, matching
the downgrade the paper applies to FTBAR for fairness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.core.compile import CompiledProblem
from repro.core.kernel import SchedulingKernel
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule
from repro.timing.constraints import RtcReport


#: Number of replicas of every task in HBP (tolerates exactly 1 failure).
HBP_REPLICAS = 2


@dataclass
class HBPStats:
    """Run statistics, used by the complexity experiment (E6).

    ``pair_evaluations`` counts *computed* pair costs; the pair-cost
    cache (the same :class:`~repro.core.kernel.KernelPlanCache` the FTBAR
    kernel uses, so the E6 runtime comparison stays apples-to-apples)
    serves the rest as ``pair_cache_hits``.
    """

    steps: int = 0
    pair_evaluations: int = 0
    pair_cache_hits: int = 0
    wall_time_s: float = 0.0


@dataclass
class HBPResult:
    """Outcome of an HBP run: schedule, ``Rtc`` verdict and statistics."""

    schedule: Schedule
    rtc_report: RtcReport
    stats: HBPStats = field(default_factory=HBPStats)

    @property
    def makespan(self) -> float:
        """Completion date of the produced schedule."""
        return self.schedule.makespan()


class HBPScheduler:
    """Height-based partitioning scheduler with task duplication.

    The ordered-pair cost search runs on the same
    :class:`~repro.core.kernel.SchedulingKernel` as FTBAR, so the E6
    runtime comparison measures the heuristics, not the data structures.
    """

    def __init__(self, problem: ProblemSpec) -> None:
        if problem.npf != 1:
            raise SchedulingError(
                f"HBP duplicates tasks exactly once and tolerates exactly one "
                f"failure; got npf={problem.npf}"
            )
        if problem.algorithm.memory_operations():
            raise SchedulingError(
                "the HBP baseline does not support memory operations"
            )
        problem.validate()
        self._problem = problem
        self._algorithm = problem.algorithm
        self._architecture = problem.architecture
        self._compiled = CompiledProblem(
            self._algorithm,
            self._architecture,
            problem.exec_times,
            problem.comm_times,
            HBP_REPLICAS - 1,
            0,
        )

    def run(self) -> HBPResult:
        """Schedule the height groups from the highest down.

        Inside one group the choice is dynamic: every still-unscheduled
        task of the group is evaluated on every ordered processor pair
        and the globally cheapest (task, pair) is committed — the
        exhaustive search that makes HBP investigate ``|group| × P²``
        possibilities per selection where FTBAR investigates
        ``|candidates| × P``.
        """
        started = time.perf_counter()
        stats = HBPStats()
        schedule = Schedule(
            processors=self._architecture.processor_names(),
            links=self._architecture.link_names(),
            npf=HBP_REPLICAS - 1,
            name=f"{self._problem.name}-hbp",
        )
        self._run_kernel(schedule, stats)
        stats.wall_time_s = time.perf_counter() - started
        rtc_report = self._problem.rtc.check(schedule)
        return HBPResult(schedule=schedule, rtc_report=rtc_report, stats=stats)

    def _run_kernel(self, schedule: Schedule, stats: HBPStats) -> None:
        """The group loop over the compiled kernel's pair costs."""
        compiled = self._compiled
        # No duplication: HBP places exactly the two replicas of the
        # winning pair, each at its earliest start.  HBP never runs the
        # selection sweep, so there is nothing for symmetry to prune.
        kernel = SchedulingKernel(
            compiled, schedule, duplication=False, symmetry=False
        )
        op_ids = compiled.op_ids
        op_names = compiled.op_names
        proc_names = compiled.proc_names
        n_procs = compiled.n_procs
        pair_span = n_procs * n_procs
        for group in self._height_groups():
            remaining = [op_ids[task] for task in group]
            while remaining:
                stats.steps += 1
                task, first, second = self._select(remaining, kernel)
                kernel.begin_step()
                kernel.place(op_names[task], proc_names[first])
                kernel.place(op_names[task], proc_names[second])
                kernel.forget_range(
                    task * pair_span, (task + 1) * pair_span
                )
                kernel.invalidate_step(pair_span)
                remaining.remove(task)
        kernel.materialize()
        stats.pair_evaluations = kernel.misses
        stats.pair_cache_hits = kernel.hits

    def _select(
        self, tasks: list[int], kernel: SchedulingKernel
    ) -> tuple[int, int, int]:
        """The cheapest (task, processor pair) among the ready tasks."""
        compiled = self._compiled
        best: tuple[float, int, int, int] | None = None
        for task in tasks:
            processors = compiled.allowed[task]
            if len(processors) < HBP_REPLICAS:
                raise InfeasibleReplicationError(
                    f"task {compiled.op_names[task]!r} can run on "
                    f"{len(processors)} processor(s), {HBP_REPLICAS} "
                    f"required by HBP"
                )
            for first in processors:
                for second in processors:
                    if first == second:
                        continue
                    cost = kernel.pair_cost(task, first, second)
                    if cost is None:
                        continue
                    key = (cost, task, first, second)
                    if best is None or key < best:
                        best = key
        if best is None:
            raise InfeasibleReplicationError(
                f"no feasible processor pair among tasks "
                f"{[compiled.op_names[t] for t in tasks]!r}"
            )
        return best[1], best[2], best[3]

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def _height_groups(self) -> list[list[str]]:
        """Tasks partitioned by height, highest group first.

        Processing groups in decreasing height respects precedence:
        every edge goes from a strictly higher task to a lower one.
        """
        heights = self._algorithm.heights()
        groups: dict[int, list[str]] = {}
        for task in self._algorithm.operation_names():
            groups.setdefault(heights[task], []).append(task)
        return [sorted(groups[h]) for h in sorted(groups, reverse=True)]


def schedule_hbp(problem: ProblemSpec) -> HBPResult:
    """Convenience one-call API for the HBP baseline."""
    return HBPScheduler(problem).run()
