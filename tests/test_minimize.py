"""Unit tests for Minimize_start_time (LIP duplication), the oracle's."""

import pytest

from repro.core.kernel import DuplicationStats
from repro.exceptions import SchedulingError
from repro.graphs.algorithm import from_dependencies
from repro.hardware.topologies import fully_connected
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from tests.ftbar_oracle import (
    LoggedSchedule,
    PlacementPlanner,
    StartTimeMinimizer,
)


def make_minimizer(comm_time: float, exec_time: float = 1.0, npf: int = 0,
                   duplication: bool = True):
    """A -> B on two processors; comm_time controls whether duplication pays."""
    algorithm = from_dependencies([("A", "B")])
    architecture = fully_connected(2)
    exec_times = ExecutionTimes.uniform(
        ["A", "B"], architecture.processor_names(), exec_time
    )
    comm_times = CommunicationTimes.uniform(
        [("A", "B")], architecture.link_names(), comm_time
    )
    planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, npf)
    minimizer = StartTimeMinimizer(
        planner=planner, exec_times=exec_times, duplication=duplication
    )
    schedule = LoggedSchedule(
        processors=architecture.processor_names(),
        links=architecture.link_names(),
        npf=npf,
    )
    return minimizer, schedule


class TestPlacement:
    def test_simple_placement_without_predecessors(self):
        minimizer, schedule = make_minimizer(comm_time=0.5)
        event = minimizer.place("A", "P1", schedule)
        assert (event.start, event.end) == (0.0, 1.0)
        assert not event.duplicated

    def test_forbidden_placement_raises(self):
        minimizer, schedule = make_minimizer(comm_time=0.5)
        minimizer.exec_times.forbid("A", "P2")
        with pytest.raises(SchedulingError, match="cannot be scheduled"):
            minimizer.place("A", "P2", schedule)


class TestDuplication:
    def test_expensive_comm_triggers_duplication(self):
        # comm 5.0 vs re-running A locally for 1.0: duplication wins.
        minimizer, schedule = make_minimizer(comm_time=5.0)
        minimizer.place("A", "P1", schedule)
        event = minimizer.place("B", "P2", schedule)
        duplicate = schedule.replica_on("A", "P2")
        assert duplicate is not None and duplicate.duplicated
        assert event.start == pytest.approx(1.0)  # right after local A copy
        assert schedule.comm_count() == 0
        assert minimizer.stats.kept == 1

    def test_duplicating_a_source_on_idle_processor_always_pays(self):
        # A is a source: its duplicate runs at time 0 in parallel, so
        # even a cheap comm (0.1) loses to the local copy.
        minimizer, schedule = make_minimizer(comm_time=0.1)
        minimizer.place("A", "P1", schedule)
        event = minimizer.place("B", "P2", schedule)
        assert schedule.replica_on("A", "P2").duplicated
        assert event.start == pytest.approx(1.0)

    def test_cheap_comm_wins_when_processor_is_busy(self):
        # P2 is busy until t=1, so a duplicated A would end at t=2 while
        # the comm delivers at 1.1: the trial duplication is rolled back.
        minimizer, schedule = make_minimizer(comm_time=0.1)
        schedule.place_operation("W", "P2", 0.0, 1.0)
        minimizer.place("A", "P1", schedule)
        event = minimizer.place("B", "P2", schedule)
        assert schedule.replica_on("A", "P2") is None
        assert schedule.comm_count() == 1
        assert event.start == pytest.approx(1.1)
        assert minimizer.stats.kept == 0
        assert minimizer.stats.rolled_back == 1

    def test_duplication_disabled(self):
        minimizer, schedule = make_minimizer(comm_time=5.0, duplication=False)
        minimizer.place("A", "P1", schedule)
        minimizer.place("B", "P2", schedule)
        assert schedule.replica_on("A", "P2") is None
        assert minimizer.stats.attempts == 0

    def test_rollback_restores_schedule_exactly(self):
        minimizer, schedule = make_minimizer(comm_time=0.1)
        schedule.place_operation("W", "P2", 0.0, 1.0)
        minimizer.place("A", "P1", schedule)
        before_ops = schedule.replica_count()
        minimizer.place("B", "P2", schedule)
        # Only B was added; the trial duplication of A was rolled back.
        assert schedule.replica_count() == before_ops + 1

    def test_recursive_duplication_up_a_chain(self):
        # X -> Y -> Z with huge comms: scheduling Z on P2 should pull both
        # Y and X onto P2.
        algorithm = from_dependencies([("X", "Y"), ("Y", "Z")])
        architecture = fully_connected(2)
        exec_times = ExecutionTimes.uniform(
            ["X", "Y", "Z"], architecture.processor_names(), 1.0
        )
        comm_times = CommunicationTimes.uniform(
            [("X", "Y"), ("Y", "Z")], architecture.link_names(), 10.0
        )
        planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, 0)
        minimizer = StartTimeMinimizer(planner=planner, exec_times=exec_times)
        schedule = LoggedSchedule(
            processors=architecture.processor_names(),
            links=architecture.link_names(),
            npf=0,
        )
        minimizer.place("X", "P1", schedule)
        minimizer.place("Y", "P1", schedule)
        event = minimizer.place("Z", "P2", schedule)
        assert schedule.replica_on("Y", "P2").duplicated
        assert schedule.replica_on("X", "P2").duplicated
        assert event.start == pytest.approx(2.0)
        assert schedule.comm_count() == 0

    def test_duplication_respects_distribution_constraints(self):
        minimizer, schedule = make_minimizer(comm_time=5.0)
        minimizer.exec_times.forbid("A", "P2")
        minimizer.place("A", "P1", schedule)
        minimizer.place("B", "P2", schedule)
        # A cannot run on P2, so B must wait for the comm.
        assert schedule.replica_on("A", "P2") is None
        assert schedule.comm_count() == 1

    def test_stats_merge(self):
        first = DuplicationStats(attempts=2, kept=1, rolled_back=1, extra_replicas=1)
        second = DuplicationStats(attempts=3, kept=2, rolled_back=1, extra_replicas=2)
        first.merge(second)
        assert (first.attempts, first.kept) == (5, 3)
        assert (first.rolled_back, first.extra_replicas) == (2, 3)
