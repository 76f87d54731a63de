"""Unit tests for the immutable scheduled events."""

import pytest

from repro.schedule.events import ScheduledComm, ScheduledOperation


class TestScheduledOperation:
    def test_duration(self):
        event = ScheduledOperation(1.0, 3.5, "A", 0, "P1")
        assert event.duration == 2.5

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends"):
            ScheduledOperation(2.0, 1.0, "A", 0, "P1")

    def test_rejects_negative_replica(self):
        with pytest.raises(ValueError, match="replica"):
            ScheduledOperation(0.0, 1.0, "A", -1, "P1")

    def test_label(self):
        assert ScheduledOperation(0.0, 1.0, "A", 1, "P3").label() == "A/1@P3"

    def test_shifted(self):
        event = ScheduledOperation(1.0, 2.0, "A", 0, "P1")
        moved = event.shifted(3.0)
        assert (moved.start, moved.end) == (4.0, 5.0)
        assert event.start == 1.0

    def test_ordering_by_start(self):
        early = ScheduledOperation(0.0, 1.0, "B", 0, "P1")
        late = ScheduledOperation(2.0, 3.0, "A", 0, "P1")
        assert sorted([late, early]) == [early, late]

    def test_duplicated_flag_defaults_false(self):
        assert not ScheduledOperation(0.0, 1.0, "A", 0, "P1").duplicated


class TestScheduledComm:
    def make(self) -> ScheduledComm:
        return ScheduledComm(
            start=1.0,
            end=2.0,
            source="I",
            target="A",
            source_replica=0,
            target_replica=1,
            link="L1.3",
            source_processor="P1",
            target_processor="P3",
        )

    def test_duration_and_edge(self):
        comm = self.make()
        assert comm.duration == 1.0
        assert comm.edge == ("I", "A")

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="ends"):
            ScheduledComm(2.0, 1.0, "I", "A", 0, 0, "L", "P1", "P2")

    def test_label(self):
        assert self.make().label() == "I/0->A/1 on L1.3"

    def test_hop_index_defaults_to_zero(self):
        assert self.make().hop_index == 0


def _operation_fields(event):
    return (
        event.start, event.end, event.operation, event.replica,
        event.processor, event.duplicated,
    )


def _comm_fields(comm):
    return (
        comm.start, comm.end, comm.source, comm.target,
        comm.source_replica, comm.target_replica, comm.link,
        comm.source_processor, comm.target_processor, comm.hop_index,
        comm.route,
    )


class TestTupleEvents:
    """Events order, compare and hash as their field tuples."""

    OPERATIONS = [
        ScheduledOperation(2.0, 3.0, "A", 0, "P1"),
        ScheduledOperation(2.0, 3.0, "A", 0, "P1", True),
        ScheduledOperation(2.0, 2.5, "B", 1, "P2"),
        ScheduledOperation(0.0, 4.0, "C", 0, "P3"),
        ScheduledOperation(2.0, 3.0, "A", 1, "P0"),
        ScheduledOperation(0.0, 0.0, "Z", 0, "P9"),
    ]
    COMMS = [
        ScheduledComm(1.0, 2.0, "I", "A", 0, 1, "L1.3", "P1", "P3"),
        ScheduledComm(1.0, 2.0, "I", "A", 0, 1, "L1.3", "P1", "P3", 1),
        ScheduledComm(1.0, 2.0, "I", "A", 0, 0, "L1.2", "P1", "P2", 0, 1),
        ScheduledComm(0.5, 2.0, "J", "B", 1, 0, "L2.3", "P2", "P3"),
    ]

    def test_constructor_errors_unchanged(self):
        with pytest.raises(
            ValueError, match=r"^operation 'A' ends \(1\.0\) before it starts \(2\.0\)$"
        ):
            ScheduledOperation(start=2.0, end=1.0, operation="A", replica=0,
                               processor="P1")
        with pytest.raises(ValueError, match=r"^replica index must be >= 0$"):
            ScheduledOperation(0.0, 1.0, "A", -1, "P1")
        with pytest.raises(
            ValueError, match=r"^comm 'I'->'A' ends \(1\.0\) before it starts \(2\.0\)$"
        ):
            ScheduledComm(2.0, 1.0, "I", "A", 0, 0, "L", "P1", "P2")

    def test_sorted_order_is_the_field_order(self):
        assert sorted(self.OPERATIONS) == sorted(
            self.OPERATIONS, key=_operation_fields
        )
        assert sorted(self.COMMS) == sorted(self.COMMS, key=_comm_fields)

    def test_hash_and_equality_are_the_field_tuples(self):
        for event in self.OPERATIONS:
            assert hash(event) == hash(_operation_fields(event))
            assert event == ScheduledOperation(*_operation_fields(event))
        for comm in self.COMMS:
            assert hash(comm) == hash(_comm_fields(comm))
            assert comm == ScheduledComm(*_comm_fields(comm))
        assert len(set(self.OPERATIONS)) == len(self.OPERATIONS)

    def test_keyword_construction_and_defaults(self):
        event = ScheduledOperation(
            start=1.0, end=2.0, operation="A", replica=0, processor="P1"
        )
        assert event.duplicated is False
        assert repr(event) == (
            "ScheduledOperation(start=1.0, end=2.0, operation='A', "
            "replica=0, processor='P1', duplicated=False)"
        )
        comm = self.COMMS[0]
        assert (comm.hop_index, comm.route) == (0, 0)

    def test_shifted_keeps_the_other_fields(self):
        event = ScheduledOperation(1.0, 2.0, "A", 2, "P4", True)
        moved = event.shifted(0.5)
        assert type(moved) is ScheduledOperation
        assert moved == ScheduledOperation(1.5, 2.5, "A", 2, "P4", True)

    def test_events_are_immutable(self):
        with pytest.raises(AttributeError):
            self.OPERATIONS[0].start = 5.0
