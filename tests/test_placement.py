"""Unit tests for the oracle's object planner (link slots, arrivals, plans)."""

import pytest

from repro.graphs.algorithm import from_dependencies
from repro.hardware.architecture import Architecture
from repro.hardware.link import Link
from repro.hardware.topologies import fully_connected
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from tests.ftbar_oracle import (
    LinkState,
    PlacementPlanner,
    commit_plan,
    critical_feed,
)


def planner_setup(npf: int = 1):
    algorithm = from_dependencies([("A", "B")])
    architecture = fully_connected(3)
    exec_times = ExecutionTimes.uniform(["A", "B"], architecture.processor_names(), 1.0)
    comm_times = CommunicationTimes.uniform(
        [("A", "B")], architecture.link_names(), 0.5
    )
    planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, npf)
    schedule = Schedule(
        processors=architecture.processor_names(),
        links=architecture.link_names(),
        npf=npf,
    )
    return planner, schedule


class TestLinkState:
    def make_schedule(self) -> Schedule:
        schedule = Schedule(processors=["P1", "P2"], links=["L"], npf=0)
        schedule.place_comm("A", "B", 0, 0, "L", 2.0, 1.0, "P1", "P2")
        return schedule

    def test_append_mode_waits_for_last_comm(self):
        state = LinkState(self.make_schedule())
        assert state.preview("L", 0.0, 1.0) == (3.0, 4.0)

    def test_append_mode_respects_ready_time(self):
        state = LinkState(self.make_schedule())
        assert state.preview("L", 5.0, 1.0) == (5.0, 6.0)

    def test_reserve_consumes_slot(self):
        state = LinkState(self.make_schedule())
        assert state.reserve("L", 0.0, 1.0) == (3.0, 4.0)
        assert state.preview("L", 0.0, 1.0) == (4.0, 5.0)

    def test_reservations_do_not_touch_schedule(self):
        schedule = self.make_schedule()
        LinkState(schedule).reserve("L", 0.0, 1.0)
        assert schedule.comm_count() == 1


class TestPlanning:
    def test_source_operation_plan(self):
        planner, schedule = planner_setup()
        plan = planner.plan("A", "P1", schedule)
        assert plan.s_best == 0.0
        assert plan.s_worst == 0.0
        assert plan.feeds == []

    def test_plan_forbidden_pair_is_none(self):
        planner, schedule = planner_setup()
        algorithm = from_dependencies([("A", "B")])
        architecture = fully_connected(2)
        exec_times = ExecutionTimes.uniform(["A", "B"], ["P1", "P2"], 1.0)
        exec_times.forbid("A", "P1")
        comm_times = CommunicationTimes.uniform([("A", "B")], ["L1.2"], 0.5)
        planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, 0)
        schedule = Schedule(processors=["P1", "P2"], links=["L1.2"], npf=0)
        assert planner.plan("A", "P1", schedule) is None

    def test_plan_on_occupied_processor_is_none(self):
        planner, schedule = planner_setup()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        assert planner.plan("A", "P1", schedule) is None

    def test_local_predecessor_feed(self):
        planner, schedule = planner_setup()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("A", "P2", 0.0, 1.0)
        plan = planner.plan("B", "P1", schedule)
        feed = plan.feeds[0]
        assert feed.local_end == 1.0
        assert feed.comms == []
        # Intra-processor: data is there when the replica completes.
        assert plan.s_best == pytest.approx(1.0)
        assert plan.s_worst == pytest.approx(1.0)

    def test_remote_feeds_from_every_replica(self):
        planner, schedule = planner_setup()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("A", "P2", 0.0, 1.0)
        plan = planner.plan("B", "P3", schedule)
        feed = plan.feeds[0]
        assert len(feed.arrivals) == 2
        assert len(feed.comms) == 2
        # Both arrive at 1.5 over parallel links L1.3 and L2.3.
        assert feed.arrivals == [pytest.approx(1.5), pytest.approx(1.5)]
        assert {c.link for c in feed.comms} == {"L1.3", "L2.3"}

    def test_source_plan_reserves_nothing(self):
        planner, schedule = planner_setup()
        plan = planner.plan("A", "P1", schedule)
        assert plan.feeds == []

    def test_s_worst_is_kth_smallest_arrival(self):
        planner, schedule = planner_setup(npf=1)
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("A", "P2", 2.0, 1.0)  # later replica
        plan = planner.plan("B", "P3", schedule)
        assert plan.s_best == pytest.approx(1.5)   # first arrival
        assert plan.s_worst == pytest.approx(3.5)  # 2nd arrival (npf+1 = 2)

    def test_processor_availability_clamps_start(self):
        planner, schedule = planner_setup()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("A", "P2", 0.0, 1.0)
        schedule.place_operation("X", "P3", 0.0, 9.0)
        plan = planner.plan("B", "P3", schedule)
        assert plan.s_best == pytest.approx(9.0)

    def test_critical_feed_identifies_lip(self):
        algorithm = from_dependencies([("A", "C"), ("B", "C")])
        architecture = fully_connected(3)
        exec_times = ExecutionTimes.uniform(
            ["A", "B", "C"], architecture.processor_names(), 1.0
        )
        comm_times = CommunicationTimes()
        for edge, duration in ((("A", "C"), 0.5), (("B", "C"), 5.0)):
            for link in architecture.link_names():
                comm_times.set(edge, link, duration)
        planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, 0)
        schedule = Schedule(
            processors=architecture.processor_names(),
            links=architecture.link_names(),
            npf=0,
        )
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("B", "P2", 0.0, 1.0)
        plan = planner.plan("C", "P3", schedule)
        assert critical_feed(plan).predecessor == "B"

    def test_critical_feed_none_for_source(self):
        planner, schedule = planner_setup()
        assert critical_feed(planner.plan("A", "P1", schedule)) is None

    def test_multi_hop_transfer(self):
        algorithm = from_dependencies([("A", "B")])
        architecture = Architecture("line")
        for name in ("P1", "P2", "P3"):
            architecture.add_processor(name)
        architecture.add_link(Link.between("L1.2", "P1", "P2"))
        architecture.add_link(Link.between("L2.3", "P2", "P3"))
        exec_times = ExecutionTimes.uniform(["A", "B"], ("P1", "P2", "P3"), 1.0)
        comm_times = CommunicationTimes.uniform(
            [("A", "B")], ("L1.2", "L2.3"), 0.5
        )
        planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, 0)
        schedule = Schedule(
            processors=("P1", "P2", "P3"), links=("L1.2", "L2.3"), npf=0
        )
        schedule.place_operation("A", "P1", 0.0, 1.0)
        plan = planner.plan("B", "P3", schedule)
        feed = plan.feeds[0]
        assert len(feed.comms) == 2
        assert [c.hop_index for c in feed.comms] == [0, 1]
        assert feed.comms[0].target_processor == "P2"
        assert feed.comms[1].source_processor == "P2"
        assert feed.arrivals == [pytest.approx(2.0)]  # 1 + 0.5 + 0.5


class TestCommit:
    def test_commit_places_operation_and_comms(self):
        planner, schedule = planner_setup()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("A", "P2", 0.0, 1.0)
        plan = planner.plan("B", "P3", schedule)
        event = commit_plan(plan, schedule)
        assert event.start == pytest.approx(1.5)
        assert schedule.comm_count() == 2
        for comm in schedule.comms_toward("B", event.replica):
            assert comm.target_replica == event.replica

    def test_commit_with_explicit_start(self):
        planner, schedule = planner_setup()
        plan = planner.plan("A", "P1", schedule)
        event = commit_plan(plan, schedule, start=4.0)
        assert event.start == 4.0

    def test_commit_duplicated_flag(self):
        planner, schedule = planner_setup()
        plan = planner.plan("A", "P1", schedule)
        assert commit_plan(plan, schedule, duplicated=True).duplicated
