"""Unit tests for the Schedule container (timelines), and for the
oracle's logged subclass (snapshots, mutation log)."""

import pytest

from repro.exceptions import ScheduleValidationError
from repro.schedule.schedule import Schedule
from tests.ftbar_oracle import LoggedSchedule


def empty() -> Schedule:
    return Schedule(processors=["P1", "P2"], links=["L"], npf=1)


def logged() -> LoggedSchedule:
    return LoggedSchedule(processors=["P1", "P2"], links=["L"], npf=1)


class TestPlacement:
    def test_place_operation_assigns_replica_indices(self):
        schedule = empty()
        first = schedule.place_operation("A", "P1", 0.0, 1.0)
        second = schedule.place_operation("A", "P2", 0.0, 1.0)
        assert (first.replica, second.replica) == (0, 1)

    def test_operation_twice_on_same_processor_rejected(self):
        schedule = empty()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        with pytest.raises(ScheduleValidationError, match="already has a replica"):
            schedule.place_operation("A", "P1", 2.0, 1.0)

    def test_unknown_processor_rejected(self):
        with pytest.raises(ScheduleValidationError, match="unknown processor"):
            empty().place_operation("A", "P9", 0.0, 1.0)

    def test_overlap_on_processor_rejected(self):
        schedule = empty()
        schedule.place_operation("A", "P1", 0.0, 2.0)
        with pytest.raises(ScheduleValidationError, match="overlaps"):
            schedule.place_operation("B", "P1", 1.0, 2.0)

    def test_back_to_back_operations_allowed(self):
        schedule = empty()
        schedule.place_operation("A", "P1", 0.0, 2.0)
        schedule.place_operation("B", "P1", 2.0, 1.0)
        assert [e.operation for e in schedule.operations_on("P1")] == ["A", "B"]

    def test_insertion_into_gap_allowed(self):
        schedule = empty()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("B", "P1", 5.0, 1.0)
        schedule.place_operation("C", "P1", 2.0, 1.0)
        assert [e.operation for e in schedule.operations_on("P1")] == ["A", "C", "B"]

    def test_place_comm(self):
        schedule = empty()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        comm = schedule.place_comm("A", "B", 0, 0, "L", 1.0, 0.5, "P1", "P2")
        assert comm.end == 1.5
        assert schedule.comms_on("L") == (comm,)

    def test_comm_on_unknown_link_rejected(self):
        with pytest.raises(ScheduleValidationError, match="unknown link"):
            empty().place_comm("A", "B", 0, 0, "L9", 0.0, 1.0, "P1", "P2")

    def test_comm_overlap_rejected(self):
        schedule = empty()
        schedule.place_comm("A", "B", 0, 0, "L", 0.0, 2.0, "P1", "P2")
        with pytest.raises(ScheduleValidationError, match="overlaps"):
            schedule.place_comm("C", "D", 0, 0, "L", 1.0, 2.0, "P1", "P2")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            empty().place_operation("A", "P1", 1.0, -0.5)

    def test_needs_a_processor(self):
        with pytest.raises(ScheduleValidationError, match="at least one"):
            Schedule(processors=[])


class TestQueries:
    def populated(self) -> Schedule:
        schedule = empty()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("A", "P2", 0.0, 1.5)
        schedule.place_operation("B", "P1", 1.0, 2.0, duplicated=True)
        schedule.place_comm("A", "B", 1, 0, "L", 1.5, 0.5, "P2", "P1")
        return schedule

    def test_replicas_of(self):
        schedule = self.populated()
        assert [r.processor for r in schedule.replicas_of("A")] == ["P1", "P2"]
        assert schedule.replicas_of("Z") == ()

    def test_replica_lookup(self):
        schedule = self.populated()
        assert schedule.replica("A", 1).processor == "P2"
        with pytest.raises(ScheduleValidationError, match="no replica"):
            schedule.replica("A", 5)

    def test_replica_on(self):
        schedule = self.populated()
        assert schedule.replica_on("A", "P2").replica == 1
        assert schedule.replica_on("A", "P9") is None

    def test_scheduled_operations(self):
        assert self.populated().scheduled_operations() == ("A", "B")

    def test_is_scheduled(self):
        schedule = self.populated()
        assert schedule.is_scheduled("A")
        assert not schedule.is_scheduled("Z")

    def test_all_operations_sorted_by_time(self):
        events = self.populated().all_operations()
        assert [e.start for e in events] == sorted(e.start for e in events)

    def test_comms_toward(self):
        schedule = self.populated()
        assert len(schedule.comms_toward("B", 0)) == 1
        assert schedule.comms_toward("B", 1) == ()

    def test_comms_for_edge(self):
        schedule = self.populated()
        assert len(schedule.comms_for_edge("A", "B")) == 1
        assert schedule.comms_for_edge("B", "A") == ()

    def test_availability(self):
        schedule = self.populated()
        assert schedule.processor_available("P1") == 3.0
        assert schedule.processor_available("P2") == 1.5
        assert schedule.link_available("L") == 2.0

    def test_availability_of_unknown_resource(self):
        with pytest.raises(ScheduleValidationError):
            self.populated().processor_available("P9")
        with pytest.raises(ScheduleValidationError):
            self.populated().link_available("L9")

    def test_makespan(self):
        assert self.populated().makespan() == 3.0
        assert empty().makespan() == 0.0

    def test_counters(self):
        schedule = self.populated()
        assert schedule.replica_count() == 3
        assert schedule.comm_count() == 1
        assert schedule.duplicated_count() == 1

    def test_summary_mentions_makespan(self):
        assert "makespan=3" in self.populated().summary()


class TestSnapshot:
    def test_restore_discards_later_placements(self):
        schedule = logged()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        saved = schedule.snapshot()
        schedule.place_operation("B", "P1", 1.0, 1.0)
        schedule.place_comm("A", "B", 0, 0, "L", 1.0, 1.0, "P1", "P2")
        schedule.restore(saved)
        assert schedule.scheduled_operations() == ("A",)
        assert schedule.comm_count() == 0
        assert schedule.makespan() == 1.0

    def test_snapshot_is_immutable_view(self):
        schedule = logged()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        saved = schedule.snapshot()
        schedule.place_operation("B", "P2", 0.0, 1.0)
        # The snapshot still reflects the old state.
        assert set(saved.replicas) == {"A"}

    def test_restore_then_continue(self):
        schedule = logged()
        saved = schedule.snapshot()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.restore(saved)
        schedule.place_operation("A", "P2", 0.0, 1.0)
        assert schedule.replica_on("A", "P2") is not None
        assert schedule.replica_on("A", "P1") is None


class TestMutationLog:
    def test_undo_restores_every_query(self):
        schedule = logged()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        operations, makespan = schedule.all_operations(), schedule.makespan()
        mark = schedule.mark()
        schedule.place_operation("A", "P2", 0.0, 1.0)
        schedule.place_operation("B", "P2", 2.0, 1.0)
        schedule.place_comm("A", "B", 0, 1, "L", 1.0, 1.0, "P1", "P2")
        schedule.undo_to(mark)
        assert schedule.all_operations() == operations
        assert schedule.all_comms() == ()
        assert schedule.makespan() == makespan
        assert schedule.replicas_of("A") == operations
        assert schedule.replica_on("A", "P2") is None
        assert not schedule.is_scheduled("B")
        assert schedule.comms_toward("B", 1) == ()
        assert schedule.comms_for_edge("A", "B") == ()

    def test_nested_marks_unwind_lifo(self):
        schedule = logged()
        outer = schedule.mark()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        inner = schedule.mark()
        schedule.place_operation("B", "P1", 1.0, 1.0)
        schedule.undo_to(inner)
        assert schedule.scheduled_operations() == ("A",)
        schedule.undo_to(outer)
        assert schedule.scheduled_operations() == ()
        assert schedule.makespan() == 0.0

    def test_production_schedule_keeps_no_log(self):
        schedule = empty()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        assert not hasattr(schedule, "_log")
        assert not hasattr(schedule, "mark")
