"""The kernel's duplication bound: LIP trials whose rollback is certain.

Before a ``Minimize_start_time`` trial duplicates the LIP on ``p``, the
kernel checks ``proc_avail[p] + Exe(lip, p) >= S_worst - ε``: the LIP
replica cannot end before that sum, so step Ð would roll the trial back
and the trial is skipped (``DuplicationStats.pruned``).  The unit tests
sit on both sides of the bound; the corpus test checks that the bound
fires on the equivalence corpora and that every schedule there still
equals the paper-literal oracle's, which never prunes.
"""

from __future__ import annotations

import math

import pytest

from repro.core.compile import CompiledProblem
from repro.core.ftbar import schedule_ftbar
from repro.core.kernel import _EPSILON, SchedulingKernel
from repro.graphs.algorithm import from_dependencies
from repro.hardware.topologies import fully_connected
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from tests.ftbar_oracle import (
    LoggedSchedule,
    PlacementPlanner,
    StartTimeMinimizer,
    ftbar_reference,
)
from tests.test_engine_equivalence import (
    CORPUS,
    VARIANTS,
    corpus_problem,
    differential_cases,
    differential_problem,
    ftbar_trace,
)

#: ``W`` keeps P2 busy until 0.5; the comm from A's replica on P1
#: (ends at 1.0) reaches P2 at 3.0, so ``S_worst(B, P2) = 3.0``.
BUSY_UNTIL = 0.5
S_WORST = 3.0


def make_tables(lip_exe_on_p2: float, chain: bool = False):
    """A -> B (Z -> A -> B) on two processors; ``Exe(A, P2)`` given."""
    edges = [("A", "B")] + ([("Z", "A")] if chain else [])
    algorithm = from_dependencies(edges + [("W", "X")])
    architecture = fully_connected(2)
    procs = architecture.processor_names()
    exec_times = ExecutionTimes.uniform(algorithm.operation_names(), procs, 1.0)
    exec_times.set("A", "P2", lip_exe_on_p2)
    exec_times.set("W", "P2", BUSY_UNTIL)
    if chain:
        exec_times.forbid("Z", "P2")
    comm_times = CommunicationTimes.uniform(
        algorithm.dependencies(), architecture.link_names(), 2.0
    )
    return algorithm, architecture, exec_times, comm_times


def placements(chain: bool) -> tuple[tuple[str, str], ...]:
    """A (after Z) on P1, then W keeps P2 busy until 0.5."""
    return (("Z", "P1"),) * chain + (("A", "P1"), ("W", "P2"))


def make_kernel(lip_exe_on_p2: float, chain: bool = False):
    """The kernel with A placed on P1 and P2 busy, ready to place B."""
    algorithm, architecture, exec_times, comm_times = make_tables(
        lip_exe_on_p2, chain
    )
    compiled = CompiledProblem(
        algorithm, architecture, exec_times, comm_times, 0, 0, {}
    )
    schedule = Schedule(
        processors=architecture.processor_names(),
        links=architecture.link_names(), npf=0, npl=0,
    )
    kernel = SchedulingKernel(compiled, schedule)
    for operation, processor in placements(chain):
        kernel.place(operation, processor)
    return kernel


def counters(kernel) -> tuple[int, int, int, int]:
    stats = kernel.dup_stats
    assert stats.attempts == stats.kept + stats.rolled_back
    assert stats.extra_replicas == stats.kept
    return stats.attempts, stats.kept, stats.rolled_back, stats.pruned


def exe_reaching(target: float) -> float:
    """``Exe(A, P2)`` with ``BUSY_UNTIL + Exe`` exactly ``target``."""
    exe = target - BUSY_UNTIL
    assert BUSY_UNTIL + exe == target
    return exe


class TestBound:
    def test_prunes_at_exact_equality(self):
        exe = exe_reaching(S_WORST - _EPSILON)
        kernel = make_kernel(exe)
        kernel.place("B", "P2")
        assert counters(kernel) == (0, 0, 0, 1)
        # Nothing was duplicated: B waits for the comm from P1.
        schedule = kernel.materialize()
        assert schedule.replica_on("A", "P2") is None
        assert schedule.replica_on("B", "P2").start == S_WORST

    def test_trial_runs_and_is_kept_one_ulp_below(self):
        exe = exe_reaching(math.nextafter(S_WORST - _EPSILON, 0.0))
        kernel = make_kernel(exe)
        kernel.place("B", "P2")
        assert counters(kernel) == (1, 1, 0, 0)
        schedule = kernel.materialize()
        duplicate = schedule.replica_on("A", "P2")
        assert duplicate.duplicated and duplicate.end == BUSY_UNTIL + exe
        assert schedule.replica_on("B", "P2").start == duplicate.end

    def test_unpruned_trial_can_still_roll_back(self):
        # A's copy on P2 waits for Z's comm (Z cannot run there), so it
        # ends at 4.0, no earlier than the comm A -> B delivers; the
        # bound only sees 0.5 + 1.0 and lets the trial run.
        kernel = make_kernel(1.0, chain=True)
        kernel.place("B", "P2")
        assert counters(kernel) == (1, 0, 1, 0)
        assert kernel.materialize().replica_on("A", "P2") is None

    @pytest.mark.parametrize(
        "exe, chain",
        [(exe_reaching(S_WORST - _EPSILON), False), (1.0, False), (1.0, True)],
        ids=["pruned", "kept", "rolled-back"],
    )
    def test_kernel_equals_the_oracle(self, exe, chain):
        algorithm, architecture, exec_times, comm_times = make_tables(
            exe, chain
        )
        planner = PlacementPlanner(
            algorithm, architecture, exec_times, comm_times, 0
        )
        minimizer = StartTimeMinimizer(planner=planner, exec_times=exec_times)
        schedule = LoggedSchedule(
            processors=architecture.processor_names(),
            links=architecture.link_names(),
            npf=0,
        )
        for operation, processor in placements(chain) + (("B", "P2"),):
            minimizer.place(operation, processor, schedule)
        kernel = make_kernel(exe, chain)
        kernel.place("B", "P2")

        def events(placed):
            return [
                (e.operation, e.processor, e.start, e.end, e.duplicated)
                for e in placed.all_operations()
            ]

        assert events(kernel.materialize()) == events(schedule)
        assert minimizer.stats.pruned == 0


def test_bound_fires_on_the_corpora_and_schedules_equal_the_oracle():
    """Every corpus schedule equals the oracle's; the bound did fire."""
    cases = [(corpus_problem(*case), None) for case in CORPUS] + [
        (differential_problem(label), VARIANTS[label.split("-")[4]])
        for label in differential_cases()
    ]
    pruned = attempts = oracle_attempts = 0
    for problem, options in cases:
        result = schedule_ftbar(problem, options)
        oracle = ftbar_reference(problem, options)
        assert ftbar_trace(problem, options) == ftbar_trace(
            problem, options, run=ftbar_reference
        ), problem.name
        stats = result.stats.duplication
        assert stats.attempts == stats.kept + stats.rolled_back
        assert oracle.stats.duplication.pruned == 0
        pruned += stats.pruned
        attempts += stats.attempts
        oracle_attempts += oracle.stats.duplication.attempts
    assert pruned > 0
    assert attempts < oracle_attempts
