"""Immutable scheduled events: operation replicas and communications.

A static schedule is a set of timed events on resources: operation
replicas on processors and comms on links.  Events are named tuples:
immutable, ordered and hashed by their fields in declaration order
(``start`` first), with every compare, hash and sort running on the C
tuple code.  Each class validates its fields on construction; the
``_make`` / ``_replace`` helpers of named tuples skip that check.
"""

from __future__ import annotations

from typing import NamedTuple


class _OperationFields(NamedTuple):
    start: float
    end: float
    operation: str
    replica: int
    processor: str
    duplicated: bool = False


class ScheduledOperation(_OperationFields):
    """One replica of an operation placed on a processor.

    ``replica`` numbers the replicas of one operation from 0; the
    ``duplicated`` flag marks extra replicas created by the
    ``Minimize_start_time`` LIP-duplication beyond the mandatory
    ``Npf + 1`` active replicas.
    """

    __slots__ = ()

    def __new__(
        cls,
        start: float,
        end: float,
        operation: str,
        replica: int,
        processor: str,
        duplicated: bool = False,
    ) -> "ScheduledOperation":
        if end < start:
            raise ValueError(
                f"operation {operation!r} ends ({end}) before it "
                f"starts ({start})"
            )
        if replica < 0:
            raise ValueError("replica index must be >= 0")
        return tuple.__new__(
            cls, (start, end, operation, replica, processor, duplicated)
        )

    @property
    def duration(self) -> float:
        """Execution time of this replica on its processor."""
        return self.end - self.start

    def label(self) -> str:
        """Short human-readable identity, e.g. ``A/1@P3``."""
        return f"{self.operation}/{self.replica}@{self.processor}"

    def shifted(self, delta: float) -> "ScheduledOperation":
        """A copy displaced in time by ``delta`` (used by tests)."""
        return self._replace(start=self.start + delta, end=self.end + delta)


class _CommFields(NamedTuple):
    start: float
    end: float
    source: str
    target: str
    source_replica: int
    target_replica: int
    link: str
    source_processor: str
    target_processor: str
    hop_index: int = 0
    route: int = 0


class ScheduledComm(_CommFields):
    """One data transfer on a link, from one replica to another.

    A comm carries the data-dependency ``source . target`` from the
    ``source_replica``-th replica of ``source`` (on ``source_processor``)
    toward the ``target_replica``-th replica of ``target`` (on
    ``target_processor``).  Multi-hop routes produce one comm per hop with
    increasing ``hop_index``; ``target_processor`` is then the next-hop
    relay for intermediate comms.  Under link-failure tolerance
    (``Npl >= 1``) one transfer is carried over ``Npl + 1`` link-disjoint
    routes; ``route`` numbers the copies from 0, and each copy has its
    own hop chain.
    """

    __slots__ = ()

    def __new__(
        cls,
        start: float,
        end: float,
        source: str,
        target: str,
        source_replica: int,
        target_replica: int,
        link: str,
        source_processor: str,
        target_processor: str,
        hop_index: int = 0,
        route: int = 0,
    ) -> "ScheduledComm":
        if end < start:
            raise ValueError(
                f"comm {source!r}->{target!r} ends ({end}) "
                f"before it starts ({start})"
            )
        return tuple.__new__(cls, (
            start, end, source, target, source_replica, target_replica,
            link, source_processor, target_processor, hop_index, route,
        ))

    @property
    def duration(self) -> float:
        """Transmission time on the link."""
        return self.end - self.start

    @property
    def edge(self) -> tuple[str, str]:
        """The data-dependency this comm implements."""
        return (self.source, self.target)

    def label(self) -> str:
        """Short human-readable identity, e.g. ``I/0->A/1 on L1.3``."""
        return (
            f"{self.source}/{self.source_replica}->"
            f"{self.target}/{self.target_replica} on {self.link}"
        )
