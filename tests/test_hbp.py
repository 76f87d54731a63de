"""Tests for the HBP (Height-Based Partitioning) baseline."""

import pytest

from repro.baselines.hbp import HBPScheduler, schedule_hbp
from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.graphs.algorithm import AlgorithmGraph
from repro.graphs.builder import diamond, fork_join, linear_chain
from repro.graphs.operations import OperationKind
from repro.schedule.validation import validate_schedule
from repro.simulation.compiled import simulate
from repro.simulation.failures import FailureScenario

from tests.util import uniform_problem


class TestPreconditions:
    def test_requires_npf_one(self):
        problem = uniform_problem(diamond(), processors=3, npf=0)
        with pytest.raises(SchedulingError, match="npf=0"):
            HBPScheduler(problem)

    def test_rejects_memory_operations(self):
        graph = AlgorithmGraph("with-mem")
        graph.add_operation("M", OperationKind.MEMORY)
        graph.add_operation("A")
        graph.add_dependency("M", "A")
        problem = uniform_problem(graph, processors=3, npf=1)
        with pytest.raises(SchedulingError, match="memory"):
            HBPScheduler(problem)

    def test_infeasible_distribution_rejected(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        problem.exec_times.forbid("A", "P1")
        problem.exec_times.forbid("A", "P2")
        with pytest.raises(InfeasibleReplicationError):
            schedule_hbp(problem)


class TestSchedules:
    def test_every_task_duplicated_exactly_twice(self):
        problem = uniform_problem(fork_join(3), processors=3, npf=1)
        result = schedule_hbp(problem)
        for operation in problem.algorithm.operation_names():
            replicas = result.schedule.replicas_of(operation)
            assert len(replicas) == 2
            assert len({r.processor for r in replicas}) == 2

    def test_schedule_validates(self):
        problem = uniform_problem(fork_join(3), processors=4, npf=1)
        result = schedule_hbp(problem)
        report = validate_schedule(
            result.schedule,
            problem.algorithm,
            problem.architecture,
            problem.exec_times,
            problem.comm_times,
        )
        assert report.ok, str(report)

    def test_single_crash_masked(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        result = schedule_hbp(problem)
        for processor in problem.architecture.processor_names():
            trace = simulate(
                result.schedule, problem.algorithm, FailureScenario.crash(processor)
            )
            assert trace.outputs_completion(problem.algorithm) is not None

    def test_height_groups_processed_in_order(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=1)
        result = schedule_hbp(problem)
        # In a chain, every replica of T0 ends before any replica of T2
        # starts (precedence is at least respected timewise).
        t0_end = max(r.end for r in result.schedule.replicas_of("T0"))
        t2_start = min(r.start for r in result.schedule.replicas_of("T2"))
        assert t0_end <= t2_start + 1e-9

    def test_deterministic(self):
        problem = uniform_problem(fork_join(4), processors=4, npf=1)
        first = schedule_hbp(problem)
        second = schedule_hbp(problem)
        assert first.makespan == second.makespan

    def test_stats_populated(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        stats = schedule_hbp(problem).stats
        assert stats.steps == 4
        # Every selection evaluates at least P*(P-1) ordered pairs.
        assert stats.pair_evaluations >= 4 * 6
        assert stats.wall_time_s >= 0.0

    def test_rtc_report_attached(self):
        from repro.timing.constraints import RealTimeConstraints

        problem = uniform_problem(
            diamond(), processors=3, npf=1,
            rtc=RealTimeConstraints(global_deadline=1000.0),
        )
        assert schedule_hbp(problem).rtc_report.satisfied

    def test_makespan_property(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        result = schedule_hbp(problem)
        assert result.makespan == result.schedule.makespan()
