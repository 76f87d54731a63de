"""The static distributed schedule: timelines per processor and per link.

The schedule is the output of the distribution heuristic: a total order
of operation replicas on every processor and of comms on every link
(section 4.2 — the total order over each communication medium is what
makes the execution deadlock-free on order-preserving networks).

Placements only ever add: the compiled kernel decides (and rolls back)
its trial placements on its own flat arrays and writes the survivors
here once.  The paper-literal ``Minimize_start_time``, which rolls back
on the schedule itself, lives with the test oracle
(``tests/ftbar_oracle.py``) together with the logged subclass it needs.

Hot queries are backed by indexes maintained on every placement instead
of per-query scans:

* ``makespan`` is a running aggregate (placements only extend it);
* ``replica_on`` reads a per-``(operation, processor)`` map;
* ``comms_toward`` / ``comms_for_edge`` read per-target and per-edge
  comm lists kept in event order.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from repro.exceptions import ScheduleValidationError
from repro.schedule.events import ScheduledComm, ScheduledOperation

_EPSILON = 1e-9


class Schedule:
    """A static, distributed, possibly replicated schedule.

    Parameters
    ----------
    processors:
        Names of the processors of the target architecture.
    links:
        Names of the communication links.
    npf:
        The processor-failure hypothesis the schedule was built for
        (0 for a non-fault-tolerant schedule).
    npl:
        The link-failure hypothesis: inter-processor transfers are
        replicated over ``npl + 1`` link-disjoint routes (0 disables
        comm replication — the paper's original engine).
    """

    def __init__(
        self,
        processors: Iterable[str],
        links: Iterable[str] = (),
        npf: int = 0,
        name: str = "schedule",
        npl: int = 0,
    ) -> None:
        self.name = name
        self.npf = npf
        self.npl = npl
        self._processor_timelines: dict[str, list[ScheduledOperation]] = {
            p: [] for p in processors
        }
        self._link_timelines: dict[str, list[ScheduledComm]] = {l: [] for l in links}
        self._replicas: dict[str, list[ScheduledOperation]] = {}
        self._makespan = 0.0
        self._replica_index: dict[tuple[str, str], ScheduledOperation] = {}
        self._inbound_comms: dict[tuple[str, int], list[ScheduledComm]] = {}
        self._edge_comms: dict[tuple[str, str], list[ScheduledComm]] = {}
        # The resource sets are fixed at construction; memoize the
        # sorted name views.
        self._processor_names_view: tuple[str, ...] | None = None
        self._link_names_view: tuple[str, ...] | None = None
        if not self._processor_timelines:
            raise ScheduleValidationError("a schedule needs at least one processor")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def place_operation(
        self,
        operation: str,
        processor: str,
        start: float,
        duration: float,
        duplicated: bool = False,
    ) -> ScheduledOperation:
        """Place a new replica of ``operation`` on ``processor``.

        Rejects unknown processors, overlap with an already placed
        replica on the same processor, and double placement of the same
        operation on one processor (replicas live on *distinct*
        processors by construction).
        """
        if processor not in self._processor_timelines:
            raise ScheduleValidationError(f"unknown processor {processor!r}")
        if (operation, processor) in self._replica_index:
            raise ScheduleValidationError(
                f"operation {operation!r} already has a replica on {processor!r}"
            )
        replica_index = len(self._replicas.get(operation, ()))
        event = ScheduledOperation(
            start=start,
            end=start + duration,
            operation=operation,
            replica=replica_index,
            processor=processor,
            duplicated=duplicated,
        )
        timeline = self._processor_timelines[processor]
        self._insert(timeline, event, f"processor {processor!r}")
        self._replicas.setdefault(operation, []).append(event)
        self._replica_index[(operation, processor)] = event
        if event.end > self._makespan:
            self._makespan = event.end
        return event

    def place_comm(
        self,
        source: str,
        target: str,
        source_replica: int,
        target_replica: int,
        link: str,
        start: float,
        duration: float,
        source_processor: str,
        target_processor: str,
        hop_index: int = 0,
        route: int = 0,
    ) -> ScheduledComm:
        """Place a data transfer on a link; rejects overlaps on the link."""
        if link not in self._link_timelines:
            raise ScheduleValidationError(f"unknown link {link!r}")
        event = ScheduledComm(
            start=start,
            end=start + duration,
            source=source,
            target=target,
            source_replica=source_replica,
            target_replica=target_replica,
            link=link,
            source_processor=source_processor,
            target_processor=target_processor,
            hop_index=hop_index,
            route=route,
        )
        self._insert(self._link_timelines[link], event, f"link {link!r}")
        inbound = self._inbound_comms.setdefault((target, target_replica), [])
        inbound.insert(self._tail_position(inbound, event), event)
        edge = self._edge_comms.setdefault((source, target), [])
        edge.insert(self._tail_position(edge, event), event)
        if event.end > self._makespan:
            self._makespan = event.end
        return event

    @staticmethod
    def _tail_position(events: list, event) -> int:
        """``bisect_left(events, event)`` with an O(1) tail fast path.

        Append-only list scheduling lands almost every event at the
        tail, so one tuple compare against the last event usually
        settles it.
        """
        if not events or events[-1] < event:
            return len(events)
        return bisect.bisect_left(events, event)

    @staticmethod
    def _insert(timeline: list, event, resource: str) -> None:
        index = Schedule._tail_position(timeline, event)
        before = timeline[index - 1] if index > 0 else None
        after = timeline[index] if index < len(timeline) else None
        if before is not None and before.end > event.start + _EPSILON:
            raise ScheduleValidationError(
                f"{event!r} overlaps {before!r} on {resource}"
            )
        if after is not None and event.end > after.start + _EPSILON:
            raise ScheduleValidationError(
                f"{event!r} overlaps {after!r} on {resource}"
            )
        timeline.insert(index, event)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def processor_names(self) -> tuple[str, ...]:
        """Processors of the schedule, sorted."""
        if self._processor_names_view is None:
            self._processor_names_view = tuple(sorted(self._processor_timelines))
        return self._processor_names_view

    def link_names(self) -> tuple[str, ...]:
        """Links of the schedule, sorted."""
        if self._link_names_view is None:
            self._link_names_view = tuple(sorted(self._link_timelines))
        return self._link_names_view

    def operations_on(self, processor: str) -> tuple[ScheduledOperation, ...]:
        """The static execution order of ``processor``."""
        try:
            return tuple(self._processor_timelines[processor])
        except KeyError:
            raise ScheduleValidationError(f"unknown processor {processor!r}") from None

    def comms_on(self, link: str) -> tuple[ScheduledComm, ...]:
        """The static transmission order of ``link``."""
        try:
            return tuple(self._link_timelines[link])
        except KeyError:
            raise ScheduleValidationError(f"unknown link {link!r}") from None

    def replicas_of(self, operation: str) -> tuple[ScheduledOperation, ...]:
        """All placed replicas of ``operation`` in placement order."""
        return tuple(self._replicas.get(operation, ()))

    def live_replicas(self, operation: str) -> "Sequence[ScheduledOperation]":
        """The live replica sequence of ``operation`` — zero-copy, read-only.

        The planners (object and compiled kernel) iterate predecessor
        replicas once per trial plan; this accessor skips the per-call
        tuple of :meth:`replicas_of`.  The returned sequence is the
        live index (an immutable ``()`` when the operation has no
        replicas): callers must not mutate it, and must not hold it
        across placements (its position ``i`` is replica index ``i``
        only for the current schedule state).
        """
        replicas = self._replicas.get(operation)
        return () if replicas is None else replicas

    def replica(self, operation: str, index: int) -> ScheduledOperation:
        """The ``index``-th replica of ``operation``."""
        replicas = self.replicas_of(operation)
        if index >= len(replicas):
            raise ScheduleValidationError(
                f"operation {operation!r} has no replica {index}"
            )
        return replicas[index]

    def replica_on(self, operation: str, processor: str) -> ScheduledOperation | None:
        """The replica of ``operation`` hosted by ``processor``, if any."""
        return self._replica_index.get((operation, processor))

    def scheduled_operations(self) -> tuple[str, ...]:
        """Names of all operations having at least one replica, sorted."""
        return tuple(sorted(self._replicas))

    def is_scheduled(self, operation: str) -> bool:
        """True when the operation has at least one replica."""
        return operation in self._replicas

    def all_operations(self) -> tuple[ScheduledOperation, ...]:
        """Every placed replica, ordered by (start, end, name...)."""
        events: list[ScheduledOperation] = []
        for timeline in self._processor_timelines.values():
            events.extend(timeline)
        return tuple(sorted(events))

    def all_comms(self) -> tuple[ScheduledComm, ...]:
        """Every placed comm, ordered by (start, end, ...)."""
        events: list[ScheduledComm] = []
        for timeline in self._link_timelines.values():
            events.extend(timeline)
        return tuple(sorted(events))

    def comms_toward(self, operation: str, replica: int) -> tuple[ScheduledComm, ...]:
        """All final-hop comms delivering data to one operation replica."""
        return tuple(self._inbound_comms.get((operation, replica), ()))

    def comms_for_edge(self, source: str, target: str) -> tuple[ScheduledComm, ...]:
        """All comms implementing the data-dependency ``source . target``."""
        return tuple(self._edge_comms.get((source, target), ()))

    # ------------------------------------------------------------------
    # resource availability (append-only list scheduling)
    # ------------------------------------------------------------------
    def processor_available(self, processor: str) -> float:
        """End of the last operation currently placed on ``processor``."""
        timeline = self._processor_timelines.get(processor)
        if timeline is None:
            raise ScheduleValidationError(f"unknown processor {processor!r}")
        return timeline[-1].end if timeline else 0.0

    def link_available(self, link: str) -> float:
        """End of the last comm currently placed on ``link``."""
        timeline = self._link_timelines.get(link)
        if timeline is None:
            raise ScheduleValidationError(f"unknown link {link!r}")
        return timeline[-1].end if timeline else 0.0

    # ------------------------------------------------------------------
    # aggregate measures
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """Completion date of the whole schedule (0 when empty)."""
        return self._makespan

    def replica_count(self) -> int:
        """Total number of placed operation replicas."""
        return len(self._replica_index)

    def comm_count(self) -> int:
        """Total number of placed comms."""
        return sum(len(t) for t in self._link_timelines.values())

    def duplicated_count(self) -> int:
        """Number of extra replicas created by LIP duplication."""
        return sum(
            1 for r in self._replicas.values() for e in r if e.duplicated
        )

    def summary(self) -> str:
        """One-paragraph textual description of the schedule."""
        return (
            f"Schedule {self.name!r}: {self.replica_count()} replicas of "
            f"{len(self._replicas)} operations on {len(self._processor_timelines)} "
            f"processors, {self.comm_count()} comms on "
            f"{len(self._link_timelines)} links, npf={self.npf}"
            + (f", npl={self.npl}" if self.npl else "")
            + f", makespan={self.makespan():g}"
        )

    def __repr__(self) -> str:
        return (
            f"Schedule(name={self.name!r}, replicas={self.replica_count()}, "
            f"comms={self.comm_count()}, makespan={self.makespan():g})"
        )
