"""Placement planning: earliest start times and communication slots.

This module answers the question at the heart of the heuristic: *if
operation ``o`` were placed on processor ``p`` right now, when could it
start, and which comms would that imply?*  It is the object-level
planner: the exhaustive baseline (:mod:`repro.baselines.exhaustive`)
plans with it, and the paper-literal FTBAR loop that serves as the
compiled kernel's test oracle plans every trial evaluation, placement
and ``Minimize_start_time`` recursion with it.  The kernel
(:mod:`repro.core.kernel`) mirrors its arithmetic on flat arrays.

Planning never mutates the real schedule; reservations happen on a
:class:`LinkState` overlay, and a chosen plan is committed afterwards
with :func:`commit_plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.graphs.algorithm import AlgorithmGraph
from repro.hardware.architecture import Architecture
from repro.schedule.events import ScheduledOperation
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes


class LinkState:
    """Append-mode reservation overlay on the link timelines of a schedule.

    A link's next free instant is the end of its last comm, real or
    trial (the paper reserves links append-only).  Trial reservations
    live only in this object, so a fresh ``LinkState`` per evaluation
    gives side-effect-free planning: it tracks one running free instant
    per link, seeded from the O(1) ``link_available``.
    """

    def __init__(self, schedule: Schedule) -> None:
        self._schedule = schedule
        self._free: dict[str, float] = {}

    def preview(self, link: str, ready: float, duration: float) -> tuple[float, float]:
        """The slot a reservation would take, without reserving it."""
        free = self._free.get(link)
        if free is None:
            free = self._schedule.link_available(link)
        start = max(ready, free)
        return start, start + duration

    def reserve(self, link: str, ready: float, duration: float) -> tuple[float, float]:
        """Pick a slot with :meth:`preview` and mark it busy."""
        start, end = self.preview(link, ready, duration)
        self._free[link] = end
        return start, end


@dataclass(frozen=True)
class PlannedComm:
    """A communication the plan would schedule (one hop of one route)."""

    source: str
    target: str
    source_replica: int
    link: str
    start: float
    end: float
    source_processor: str
    target_processor: str
    hop_index: int
    route: int = 0


@dataclass
class PredecessorFeed:
    """How one predecessor's data reaches the candidate replica.

    Either ``local_end`` is set (a replica of the predecessor lives on
    the candidate processor — single intra-processor communication, cost
    zero, not replicated) or ``arrivals`` lists the delivery time from
    every replica of the predecessor, with ``comms`` holding the planned
    transfers.

    Under link-failure tolerance each replica's transfer is carried over
    ``Npl + 1`` link-disjoint routes: ``arrivals`` then holds the
    *guaranteed* arrival per replica (the latest route copy — what any
    ``Npl`` link failures cannot delay past) and ``firsts`` the earliest
    copy per replica (the failure-free arrival).  At ``npl = 0`` the two
    coincide and ``firsts`` stays ``None``.
    """

    predecessor: str
    local_end: float | None = None
    arrivals: list[float] = field(default_factory=list)
    comms: list[PlannedComm] = field(default_factory=list)
    firsts: list[float] | None = None

    def earliest(self) -> float:
        """First possible arrival of this predecessor's data."""
        if self.local_end is not None:
            return self.local_end
        return min(self.arrivals if self.firsts is None else self.firsts)

    def worst_case(self, npf: int) -> float:
        """Latest arrival the replica may have to wait for, under ≤ npf failures.

        With a local replica the data is always there when the processor
        is alive.  Otherwise at least one of the ``npf + 1`` earliest
        senders survives any set of ``npf`` failures, so the worst-case
        wait is the ``(npf + 1)``-th earliest arrival (the paper's
        ``max`` over the ``Npf + 1`` replicas).  With ``npl >= 1`` each
        entry of ``arrivals`` is already that replica's guaranteed
        arrival under any ``npl`` link failures, so the same index rule
        bounds the combined processor+link worst case.
        """
        if self.local_end is not None:
            return self.local_end
        ordered = sorted(self.arrivals)
        index = min(npf, len(ordered) - 1)
        return ordered[index]


@dataclass
class PlacementPlan:
    """The full consequence of placing one replica on one processor."""

    operation: str
    processor: str
    duration: float
    processor_ready: float
    feeds: list[PredecessorFeed]
    npf: int
    _feeds_earliest: float | None = field(default=None, init=False, repr=False)
    _feeds_worst: float | None = field(default=None, init=False, repr=False)

    @property
    def feeds_earliest(self) -> float:
        """Latest over feeds of the first possible arrival (−inf if none).

        Feeds are fixed at planning time, so both aggregates are
        computed once, on first use.
        """
        if self._feeds_earliest is None:
            self._feeds_earliest = max(
                (feed.earliest() for feed in self.feeds), default=-math.inf
            )
        return self._feeds_earliest

    @property
    def feeds_worst(self) -> float:
        """Latest over feeds of the worst-case arrival (−inf if none)."""
        if self._feeds_worst is None:
            self._feeds_worst = max(
                (feed.worst_case(self.npf) for feed in self.feeds),
                default=-math.inf,
            )
        return self._feeds_worst

    @property
    def s_best(self) -> float:
        """Earliest start (first complete input set — paper's S_best)."""
        return max(self.processor_ready, self.feeds_earliest)

    @property
    def s_worst(self) -> float:
        """Earliest start in the worst failure case (paper's S_worst)."""
        return max(self.processor_ready, self.feeds_worst)


class PlacementPlanner:
    """Plans replica placements against the current schedule state."""

    def __init__(
        self,
        algorithm: AlgorithmGraph,
        architecture: Architecture,
        exec_times: ExecutionTimes,
        comm_times: CommunicationTimes,
        npf: int,
        npl: int = 0,
    ) -> None:
        self._algorithm = algorithm
        self._architecture = architecture
        self._exec_times = exec_times
        self._comm_times = comm_times
        self._npf = npf
        self._npl = npl

    def plan(
        self, operation: str, processor: str, schedule: Schedule
    ) -> PlacementPlan | None:
        """Plan placing the next replica of ``operation`` on ``processor``.

        Returns ``None`` when the pair is forbidden (``Exe = inf``) or
        the processor already hosts a replica of the operation.  All
        predecessors must already have at least one replica scheduled
        (guaranteed by the list-scheduling candidate rule).  Trial
        reservations go to a fresh :class:`LinkState` overlay, so
        planning never touches ``schedule``.
        """
        duration = self._exec_times.time_of(operation, processor)
        if duration == float("inf"):
            return None
        if schedule.replica_on(operation, processor) is not None:
            return None
        state = LinkState(schedule)
        feeds: list[PredecessorFeed] = []
        for predecessor in self._algorithm.predecessors(operation):
            feeds.append(
                self._plan_feed(predecessor, operation, processor, schedule, state)
            )
        return PlacementPlan(
            operation=operation,
            processor=processor,
            duration=duration,
            processor_ready=schedule.processor_available(processor),
            feeds=feeds,
            npf=self._npf,
        )

    def _plan_feed(
        self,
        predecessor: str,
        operation: str,
        processor: str,
        schedule: Schedule,
        state: LinkState,
    ) -> PredecessorFeed:
        local = schedule.replica_on(predecessor, processor)
        if local is not None:
            # §4.1 first case: one intra-processor communication, cost 0,
            # the remote replicas do not send at all.
            return PredecessorFeed(predecessor, local_end=local.end)
        feed = PredecessorFeed(predecessor)
        if self._npl:
            feed.firsts = []
        edge = (predecessor, operation)
        replicas = schedule.live_replicas(predecessor)
        # Relay-avoidance preference (npl >= 1): backup routes should not
        # relay through the hosts of the predecessor's other replicas,
        # otherwise one crash can silence a sender *and* another
        # sender's relay at once, voiding the combined npf+npl budget.
        sender_hosts = (
            frozenset(r.processor for r in replicas) if self._npl else frozenset()
        )
        for replica in replicas:
            first, guaranteed, comms = self._plan_transfer(
                edge, replica, processor, state, sender_hosts
            )
            feed.arrivals.append(guaranteed)
            if feed.firsts is not None:
                feed.firsts.append(first)
            feed.comms.extend(comms)
        if not feed.arrivals:
            raise ValueError(
                f"predecessor {predecessor!r} of {operation!r} has no replica; "
                f"candidate rule violated"
            )
        return feed

    def _plan_transfer(
        self,
        edge: tuple[str, str],
        producer: ScheduledOperation,
        processor: str,
        state: LinkState,
        sender_hosts: frozenset[str] = frozenset(),
    ) -> tuple[float, float, list[PlannedComm]]:
        """Plan the comms carrying ``edge`` from one replica to ``processor``.

        Returns ``(first, guaranteed, comms)``: the earliest arrival of
        any route copy (the failure-free delivery) and the latest (what
        no ``Npl`` link failures can delay past).  At ``npl = 0`` both
        are the end of the single chain.
        """
        if self._npl:
            return self._plan_replicated_transfer(
                edge, producer, processor, state, sender_hosts
            )
        direct = self._architecture.links_between(producer.processor, processor)
        if direct:
            best: tuple[float, float, str] | None = None
            for link in direct:
                duration = self._comm_times.time_of(edge, link.name)
                start, end = state.preview(link.name, producer.end, duration)
                if best is None or (end, link.name) < (best[1], best[2]):
                    best = (start, end, link.name)
            start, end, link_name = best
            state.reserve(link_name, producer.end, end - start)
            comm = PlannedComm(
                source=edge[0],
                target=edge[1],
                source_replica=producer.replica,
                link=link_name,
                start=start,
                end=end,
                source_processor=producer.processor,
                target_processor=processor,
                hop_index=0,
            )
            return end, end, [comm]
        # Multi-hop route: store-and-forward over the shortest hop path.
        hops = self._architecture.route_hops(producer.processor, processor)
        ready = producer.end
        comms: list[PlannedComm] = []
        for index, (origin, link, relay) in enumerate(hops):
            duration = self._comm_times.time_of(edge, link.name)
            start, end = state.reserve(link.name, ready, duration)
            comms.append(
                PlannedComm(
                    source=edge[0],
                    target=edge[1],
                    source_replica=producer.replica,
                    link=link.name,
                    start=start,
                    end=end,
                    source_processor=origin,
                    target_processor=relay,
                    hop_index=index,
                )
            )
            ready = end
        return ready, ready, comms

    def _plan_replicated_transfer(
        self,
        edge: tuple[str, str],
        producer: ScheduledOperation,
        processor: str,
        state: LinkState,
        sender_hosts: frozenset[str] = frozenset(),
    ) -> tuple[float, float, list[PlannedComm]]:
        """One copy of the transfer per link-disjoint route (``Npl + 1``).

        Any ``Npl`` broken links leave at least one copy's route fully
        intact, so the data is guaranteed by the latest copy's delivery;
        in the failure-free run the earliest copy wins (the simulator
        starts consumers on their first delivered arrival).  Routes come
        from the architecture's :class:`~repro.hardware.routing
        .RoutePlanner` — relays avoid the other sender replicas' hosts
        when possible — and raise a clear error when the topology cannot
        provide ``Npl + 1`` disjoint routes.
        """
        routes = self._architecture.route_planner.disjoint_routes(
            producer.processor,
            processor,
            self._npl + 1,
            avoid=sender_hosts - {producer.processor},
        )
        comms: list[PlannedComm] = []
        first = math.inf
        guaranteed = -math.inf
        for route_index, hops in enumerate(routes):
            ready = producer.end
            for index, (origin, link, relay) in enumerate(hops):
                duration = self._comm_times.time_of(edge, link.name)
                start, end = state.reserve(link.name, ready, duration)
                comms.append(
                    PlannedComm(
                        source=edge[0],
                        target=edge[1],
                        source_replica=producer.replica,
                        link=link.name,
                        start=start,
                        end=end,
                        source_processor=origin,
                        target_processor=relay,
                        hop_index=index,
                        route=route_index,
                    )
                )
                ready = end
            first = min(first, ready)
            guaranteed = max(guaranteed, ready)
        return first, guaranteed, comms


def commit_plan(
    plan: PlacementPlan,
    schedule: Schedule,
    start: float | None = None,
    duplicated: bool = False,
) -> ScheduledOperation:
    """Write a placement plan into the schedule.

    The replica starts at ``start`` (default: the plan's ``S_best``, per
    micro-step Ð) and all planned comms are placed with the new replica's
    index as their destination.

    The compiled kernel's ``SchedulingKernel._commit`` mirrors this
    function over flat hop tuples (same placement order, same duration
    re-derivation); change the two together.
    """
    event = schedule.place_operation(
        plan.operation,
        plan.processor,
        plan.s_best if start is None else start,
        plan.duration,
        duplicated=duplicated,
    )
    for feed in plan.feeds:
        for comm in feed.comms:
            schedule.place_comm(
                source=comm.source,
                target=comm.target,
                source_replica=comm.source_replica,
                target_replica=event.replica,
                link=comm.link,
                start=comm.start,
                duration=comm.end - comm.start,
                source_processor=comm.source_processor,
                target_processor=comm.target_processor,
                hop_index=comm.hop_index,
                route=comm.route,
            )
    return event
