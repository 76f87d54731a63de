"""Unit and behavioural tests for the FTBAR scheduler."""

import pytest

from repro.core.ftbar import FTBARScheduler, schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.exceptions import InfeasibleReplicationError
from repro.graphs.algorithm import AlgorithmGraph, from_dependencies
from repro.graphs.builder import (
    diamond,
    fork_join,
    independent_tasks,
    linear_chain,
)
from repro.graphs.operations import OperationKind
from repro.schedule.validation import validate_schedule
from repro.timing.constraints import RealTimeConstraints

from tests.util import uniform_problem


def assert_valid(problem, result, require_replication: bool = True) -> None:
    report = validate_schedule(
        result.schedule,
        result.expanded_algorithm,
        problem.architecture,
        problem.exec_times,
        problem.comm_times,
        require_replication=require_replication,
    )
    assert report.ok, str(report)


class TestBasicBehaviour:
    def test_npf0_schedules_each_operation_once(self):
        problem = uniform_problem(diamond(), processors=2, npf=0)
        result = schedule_ftbar(problem)
        for operation in problem.algorithm.operation_names():
            assert len(result.schedule.replicas_of(operation)) >= 1
        assert_valid(problem, result)

    def test_npf1_replicates_every_operation_twice(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        result = schedule_ftbar(problem)
        for operation in problem.algorithm.operation_names():
            replicas = result.schedule.replicas_of(operation)
            assert len(replicas) >= 2
            assert len({r.processor for r in replicas}) == len(replicas)
        assert_valid(problem, result)

    def test_npf2_needs_three_replicas(self):
        problem = uniform_problem(linear_chain(3), processors=4, npf=2)
        result = schedule_ftbar(problem)
        for operation in problem.algorithm.operation_names():
            assert len(result.schedule.replicas_of(operation)) >= 3
        assert_valid(problem, result)

    def test_single_operation_graph(self):
        graph = AlgorithmGraph("one")
        graph.add_operation("A")
        problem = uniform_problem(graph, processors=2, npf=1)
        result = schedule_ftbar(problem)
        assert result.makespan == pytest.approx(1.0)

    def test_single_processor_npf0(self):
        problem = uniform_problem(linear_chain(4), processors=1, npf=0)
        result = schedule_ftbar(problem)
        # Serialized on one processor: makespan is the sum of exec times.
        assert result.makespan == pytest.approx(4.0)

    def test_independent_tasks_spread_over_processors(self):
        problem = uniform_problem(independent_tasks(4), processors=4, npf=0)
        result = schedule_ftbar(problem)
        used = {
            r.processor
            for op in problem.algorithm.operation_names()
            for r in result.schedule.replicas_of(op)
        }
        assert len(used) == 4
        assert result.makespan == pytest.approx(1.0)

    def test_makespan_bounded_by_serial_execution(self):
        problem = uniform_problem(fork_join(4), processors=3, npf=1)
        result = schedule_ftbar(problem)
        serial_everything = 6 * 2 * 1.0 + 8 * 2 * 0.5  # all replicas + comms
        assert 0 < result.makespan <= serial_everything

    def test_deterministic_across_runs(self):
        problem = uniform_problem(fork_join(3), processors=3, npf=1)
        first = schedule_ftbar(problem)
        second = schedule_ftbar(problem)
        assert first.makespan == second.makespan
        first_events = [
            (e.operation, e.replica, e.processor, e.start)
            for e in first.schedule.all_operations()
        ]
        second_events = [
            (e.operation, e.replica, e.processor, e.start)
            for e in second.schedule.all_operations()
        ]
        assert first_events == second_events


class TestFeasibility:
    def test_not_enough_processors_rejected(self):
        problem = uniform_problem(diamond(), processors=2, npf=2)
        with pytest.raises(Exception):
            schedule_ftbar(problem)

    def test_distribution_constraints_can_make_replication_infeasible(self):
        problem = uniform_problem(linear_chain(2), processors=3, npf=1)
        problem.exec_times.forbid("T0", "P1")
        problem.exec_times.forbid("T0", "P2")
        with pytest.raises(InfeasibleReplicationError, match="T0"):
            schedule_ftbar(problem)

    def test_distribution_constraints_respected(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        problem.exec_times.forbid("B", "P1")
        result = schedule_ftbar(problem)
        assert result.schedule.replica_on("B", "P1") is None
        assert_valid(problem, result)


class TestRtcReporting:
    def test_satisfied_deadline(self):
        problem = uniform_problem(
            linear_chain(2),
            processors=3,
            npf=1,
            rtc=RealTimeConstraints(global_deadline=100.0),
        )
        assert schedule_ftbar(problem).rtc_satisfied

    def test_missed_deadline_still_returns_schedule(self):
        problem = uniform_problem(
            linear_chain(5),
            processors=3,
            npf=1,
            rtc=RealTimeConstraints(global_deadline=0.5),
        )
        result = schedule_ftbar(problem)
        assert not result.rtc_satisfied
        assert result.makespan > 0.5
        assert result.rtc_report.violations

    def test_trivial_rtc_always_satisfied(self):
        problem = uniform_problem(linear_chain(2), processors=2, npf=1)
        assert schedule_ftbar(problem).rtc_satisfied


class TestOptions:
    def test_duplication_off_means_no_duplicated_replicas(self):
        problem = uniform_problem(linear_chain(4), processors=3, npf=1,
                                  comm_time=5.0)
        result = schedule_ftbar(problem, SchedulerOptions(duplication=False))
        assert result.schedule.duplicated_count() == 0
        assert_valid(problem, result)

    def test_duplication_never_hurts_makespan_here(self):
        problem = uniform_problem(linear_chain(4), processors=3, npf=1,
                                  comm_time=5.0)
        with_dup = schedule_ftbar(problem, SchedulerOptions(duplication=True))
        without = schedule_ftbar(problem, SchedulerOptions(duplication=False))
        assert with_dup.makespan <= without.makespan

    def test_stats_populated(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        stats = schedule_ftbar(problem).stats
        assert stats.steps == 4
        assert stats.pressure_evaluations > 0
        assert stats.wall_time_s >= 0.0

    def test_processor_aware_pressure_valid(self):
        problem = uniform_problem(fork_join(4), processors=3, npf=1)
        result = schedule_ftbar(
            problem, SchedulerOptions(processor_aware_pressure=True)
        )
        assert_valid(problem, result)

    def test_processor_aware_pressure_avoids_slow_processors(self):
        # B runs 5x slower on P1/P2 than on P3; the aware pressure must
        # not choose a slow host when a fast one starts barely later.
        from repro.graphs.algorithm import from_dependencies
        from repro.timing.exec_times import ExecutionTimes

        problem = uniform_problem(from_dependencies([("A", "B")]),
                                  processors=3, npf=0, comm_time=0.5)
        problem.exec_times = ExecutionTimes.from_rows(
            ("P1", "P2", "P3"),
            {"A": (1.0, 1.0, 1.0), "B": (5.0, 5.0, 1.0)},
        )
        aware = schedule_ftbar(
            problem, SchedulerOptions(processor_aware_pressure=True)
        )
        assert aware.schedule.replica_on("B", "P3") is not None

    def test_paper_pressure_reproduces_paper_number(self, paper_problem):
        # The default (paper) pressure lands exactly on 15.05; the
        # processor-aware variant improves on it.
        paper = schedule_ftbar(paper_problem)
        aware = schedule_ftbar(
            paper_problem, SchedulerOptions(processor_aware_pressure=True)
        )
        assert paper.makespan == pytest.approx(15.05)
        assert aware.makespan < paper.makespan


class TestMemoryOperations:
    def register_problem(self, npf: int = 1):
        graph = AlgorithmGraph("register-loop")
        graph.add_operation("M", OperationKind.MEMORY)
        graph.add_operation("A")
        graph.add_operation("B")
        graph.add_dependency("M", "A")
        graph.add_dependency("A", "B")
        graph.add_dependency("B", "M")
        return uniform_problem(graph, processors=3, npf=npf)

    def test_memory_expanded_into_pinned_halves(self):
        result = schedule_ftbar(self.register_problem())
        assert "M#read" in result.expanded_algorithm.operation_names()
        assert result.memory_pairs == {"M": ("M#read", "M#write")}

    def test_read_and_write_halves_co_located(self):
        result = schedule_ftbar(self.register_problem())
        read_procs = {r.processor for r in result.schedule.replicas_of("M#read")}
        write_procs = {r.processor for r in result.schedule.replicas_of("M#write")}
        assert write_procs <= read_procs

    def test_memory_schedule_is_valid(self):
        problem = self.register_problem()
        result = schedule_ftbar(problem)
        report = validate_schedule(
            result.schedule,
            result.expanded_algorithm,
            problem.architecture,
            # The scheduler derived half-op timings internally; rebuild
            # them the same way for validation.
            _expanded_exec(problem),
            _expanded_comm(problem),
        )
        assert report.ok, str(report)

    def test_memory_deadline_maps_to_write_half(self):
        problem = self.register_problem()
        problem.rtc = RealTimeConstraints(operation_deadlines={"M": 50.0})
        result = schedule_ftbar(problem)
        assert result.rtc_satisfied


def _expanded_exec(problem):
    from repro.core.ftbar import _expand_timing

    pairs = {"M": ("M#read", "M#write")}
    return _expand_timing(problem, pairs)[0]


def _expanded_comm(problem):
    from repro.core.ftbar import _expand_timing

    pairs = {"M": ("M#read", "M#write")}
    return _expand_timing(problem, pairs)[1]
