"""The production simulator: a schedule compiled once, replayed per scenario.

:class:`CompiledSchedule` flattens one ``Schedule`` + ``AlgorithmGraph``
into int-indexed struct-of-arrays — per-resource static orders,
predecessor/arrival tables, replica→processor maps, previous/next-hop
chains — compiled once and replayed many times with list indexing only.
:meth:`CompiledSchedule.replay` is the only production implementation
of the runtime semantics of section 5:

* every processor executes its operation replicas in the static order;
  an operation starts when the processor is free *and* the first
  complete set of inputs has arrived (one value per predecessor);
* every link transmits its comms in the static order among those whose
  data exists; a silent producer's comm never occupies the medium;
* a down processor is silent, and an intermittent one resumes its
  static sequence when it recovers;
* with :attr:`DetectionPolicy.TIMEOUT_ARRAY` a missed comm marks its
  sender faulty at the comm's static date, and processors stop sending
  to the processors they know are faulty.

Events are decided by a worklist that follows the resource orders and
the data dependencies; a stalled worklist fires the pending operation
with the earliest candidate start among those with one delivered input
per predecessor (what the blocking-receive executive would observe).
:func:`simulate` is the one-call API.  The iterative simulator, the
metrics, the CLI and the campaign jobs compile once per schedule and
replay once per scenario.  The paper-literal object executor survives
only as the test oracle (``tests/simulation_oracle.py``), which every
trace of the differential corpus must equal exactly.

Every :meth:`CompiledSchedule.replay` decides the schedule from t = 0
on, in one of two modes: a full replay (any scenario, any detection
policy), or a *verdict* replay that stops as soon as every
algorithm operation has one completed replica (exact for masking
checks, which only ask whether all operations were delivered).

Beside the replay, :meth:`CompiledSchedule.crash_lanes` answers the
masking verdicts of many crash subsets at instant 0 in one dataflow
pass (one bit per subset); it is exact only where the batch engine
gates it (no detection, clean baseline, positive durations), and the
replay stays its oracle.  :meth:`CompiledSchedule.proc_cone` measures
how much of the schedule a processor's failure can reach, over an
event successor graph built on first use; only the sampled
certifier's break hunt asks for it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro._record import Record
from repro.exceptions import SimulationError
from repro.graphs.algorithm import AlgorithmGraph
from repro.schedule.schedule import Schedule
from repro.simulation.failures import DetectionPolicy, FailureScenario

if TYPE_CHECKING:
    from repro.simulation.trace import ExecutionTrace

#: Integer statuses of the array engine (index into the
#: :class:`~repro.simulation.trace.EventStatus` members, in order).
UNDECIDED = -1
COMPLETED = 0
LOST = 1
SKIPPED = 2
STARVED = 3


# ----------------------------------------------------------------------
# scenario query adapters (index-based views over FailureScenario)
# ----------------------------------------------------------------------

class _NominalQueries:
    """Every resource healthy forever — all queries are identities."""

    __slots__ = ()

    def next_window(self, proc: int, earliest: float, duration: float):
        return earliest

    def transmit_window(self, proc: int, link: int, earliest: float, duration: float):
        return earliest

    def is_up(self, proc: int, instant: float) -> bool:
        return True


class _CrashSetQueries:
    """Uniform permanent crash subset at one instant — the hot path.

    Replicates ``FailureScenario`` window arithmetic exactly for the
    special case of permanent ``[at, inf)`` failures: a window of
    ``duration`` fits at ``earliest`` iff it closes by ``at``.  The
    subset may silence processors *and* links (the combined scenarios of
    processor+link certification); a transmit window is blocked when
    either the sender or the medium is in the subset.
    """

    __slots__ = ("_down", "_at", "_down_links")

    def __init__(
        self,
        down: frozenset[int],
        at: float,
        down_links: frozenset[int] = frozenset(),
    ) -> None:
        self._down = down
        self._at = at
        self._down_links = down_links

    def next_window(self, proc: int, earliest: float, duration: float):
        if proc not in self._down:
            return earliest
        return earliest if self._at >= earliest + duration else None

    def transmit_window(self, proc: int, link: int, earliest: float, duration: float):
        if proc not in self._down and link not in self._down_links:
            return earliest
        return earliest if self._at >= earliest + duration else None

    def is_up(self, proc: int, instant: float) -> bool:
        return proc not in self._down or instant < self._at


class _GenericQueries:
    """Any :class:`FailureScenario` (intermittent, link failures, ...)."""

    __slots__ = ("_scenario", "_procs", "_links")

    def __init__(
        self,
        scenario: FailureScenario,
        procs: tuple[str, ...],
        links: tuple[str, ...],
    ) -> None:
        self._scenario = scenario
        self._procs = procs
        self._links = links

    def next_window(self, proc: int, earliest: float, duration: float):
        return self._scenario.next_window(self._procs[proc], earliest, duration)

    def transmit_window(self, proc: int, link: int, earliest: float, duration: float):
        # Alternate between the sender's and the medium's next-window
        # searches until they agree; each round skips a down interval.
        scenario = self._scenario
        sender = self._procs[proc]
        medium = self._links[link]
        cursor = earliest
        while True:
            sender_ok = scenario.next_window(sender, cursor, duration)
            if sender_ok is None:
                return None
            link_ok = scenario.link_next_window(medium, sender_ok, duration)
            if link_ok is None:
                return None
            if link_ok == sender_ok:
                return link_ok
            cursor = link_ok

    def is_up(self, proc: int, instant: float) -> bool:
        return self._scenario.is_up(self._procs[proc], instant)


def _queries(
    compiled: "CompiledSchedule", scenario: FailureScenario | None
):
    """The cheapest query adapter that models ``scenario`` exactly."""
    if scenario is None or len(scenario) == 0:
        return _NominalQueries()
    failure_set = scenario.permanent_failure_set()
    if failure_set is not None:
        processors, links, at = failure_set
        down = frozenset(
            compiled.proc_ids[name]
            for name in processors
            if name in compiled.proc_ids
        )
        down_links = frozenset(
            compiled.link_ids[name]
            for name in links
            if name in compiled.link_ids
        )
        return _CrashSetQueries(down, at, down_links)
    return _GenericQueries(scenario, compiled.proc_names, compiled.link_names)


# ----------------------------------------------------------------------
# replay outcome
# ----------------------------------------------------------------------

class CompiledTrace(Record):
    """Struct-of-arrays outcome of one compiled replay.

    ``knowledge`` maps ``(observer, faulty)`` to a detection time
    (timeout-array only); ``decisions`` counts the full event decisions
    of the replay and ``relaxed_fires`` the stalled-worklist
    relaxations fired; ``truncated`` says the verdict-mode early exit
    cut the replay short.
    """

    __slots__ = _fields = (
        "op_status", "op_start", "op_end", "comm_status", "comm_start",
        "comm_end", "comm_delivered", "knowledge", "decisions",
        "relaxed_fires", "truncated",
    )

    def __init__(
        self,
        op_status: list[int],
        op_start: list[float | None],
        op_end: list[float | None],
        comm_status: list[int],
        comm_start: list[float | None],
        comm_end: list[float | None],
        comm_delivered: list[bool],
        knowledge: dict[tuple[int, int], float] | None = None,
        decisions: int = 0,
        relaxed_fires: int = 0,
        truncated: bool = False,
    ) -> None:
        self.op_status = op_status
        self.op_start = op_start
        self.op_end = op_end
        self.comm_status = comm_status
        self.comm_start = comm_start
        self.comm_end = comm_end
        self.comm_delivered = comm_delivered
        self.knowledge = {} if knowledge is None else knowledge
        self.decisions = decisions
        self.relaxed_fires = relaxed_fires
        self.truncated = truncated

    def delivered(self, compiled: "CompiledSchedule") -> bool:
        """True when every algorithm operation completed somewhere."""
        status = self.op_status
        for group in compiled.operation_groups:
            if not any(status[op] == COMPLETED for op in group):
                return False
        return True

    def makespan(self) -> float:
        """Latest end over every completed event; 0.0 when none completed.

        Equals ``to_trace(compiled).makespan()`` without building the
        object-level trace.
        """
        latest = 0.0
        for status, end in zip(self.op_status, self.op_end):
            if status == COMPLETED and end > latest:
                latest = end
        for status, end in zip(self.comm_status, self.comm_end):
            if status == COMPLETED and end > latest:
                latest = end
        return latest

    def outputs_completion(
        self, compiled: "CompiledSchedule", algorithm: AlgorithmGraph
    ) -> float | None:
        """When the last output delivers its first result; ``None`` if lost.

        ``compiled`` must be built over ``algorithm``.  Equals
        ``to_trace(compiled).outputs_completion(algorithm)`` without
        building the object-level trace.
        """
        groups = dict(zip(algorithm.operation_names(), compiled.operation_groups))
        status = self.op_status
        ends = self.op_end
        latest = 0.0
        for sink in algorithm.sinks():
            firsts = [ends[op] for op in groups[sink] if status[op] == COMPLETED]
            if not firsts:
                return None
            latest = max(latest, min(firsts))
        return latest

    def to_trace(self, compiled: "CompiledSchedule") -> ExecutionTrace:
        """Rebuild the object-level :class:`ExecutionTrace`."""
        if self.truncated:
            raise SimulationError(
                "a verdict-mode replay is truncated; rerun without "
                "verdict_only to obtain a full trace"
            )
        from repro.simulation.trace import (
            EventStatus,
            ExecutionTrace,
            SimulatedComm,
            SimulatedOperation,
        )

        statuses = tuple(EventStatus)
        operations = []
        for op in compiled.ops_trace_order:
            event = compiled.op_events[op]
            operations.append(
                SimulatedOperation(
                    event.operation,
                    event.replica,
                    event.processor,
                    statuses[self.op_status[op]],
                    start=self.op_start[op],
                    end=self.op_end[op],
                )
            )
        comms = []
        for comm in compiled.comms_trace_order:
            event = compiled.comm_events[comm]
            comms.append(
                SimulatedComm(
                    source=event.source,
                    target=event.target,
                    source_replica=event.source_replica,
                    target_replica=event.target_replica,
                    link=event.link,
                    source_processor=event.source_processor,
                    target_processor=event.target_processor,
                    hop_index=event.hop_index,
                    route=event.route,
                    status=statuses[self.comm_status[comm]],
                    start=self.comm_start[comm],
                    end=self.comm_end[comm],
                    delivered=self.comm_delivered[comm],
                )
            )
        detections: dict[str, dict[str, float]] = {}
        for (observer, faulty), at in self.knowledge.items():
            table = detections.setdefault(compiled.proc_names[observer], {})
            table[compiled.proc_names[faulty]] = at
        return ExecutionTrace(
            operations=operations, comms=comms, detections=detections
        )

    @property
    def clean(self) -> bool:
        """True when every event completed without any relaxation."""
        return (
            self.relaxed_fires == 0
            and not self.truncated
            and all(s == COMPLETED for s in self.op_status)
            and all(s == COMPLETED for s in self.comm_status)
        )


# ----------------------------------------------------------------------
# the compiled schedule
# ----------------------------------------------------------------------

class CompiledSchedule:
    """One schedule flattened into int-indexed arrays, replayable cheaply.

    Build once with :meth:`compile`; every :meth:`replay` is independent.
    Operation ids number the per-processor static orders back-to-back in
    sorted processor order; comm ids do the same over links.  All event
    attributes the replay needs are plain Python lists indexed by id.
    """

    def __init__(self, schedule: Schedule, algorithm: AlgorithmGraph) -> None:
        for operation in algorithm.operation_names():
            if not schedule.replicas_of(operation):
                raise SimulationError(
                    f"operation {operation!r} of the algorithm is not in the "
                    f"schedule"
                )
        self.proc_names = schedule.processor_names()
        self.link_names = schedule.link_names()
        self.proc_ids = {name: i for i, name in enumerate(self.proc_names)}
        self.link_ids = {name: i for i, name in enumerate(self.link_names)}

        # --- operations -------------------------------------------------
        self.op_events: list = []
        self.proc_order: list[list[int]] = []
        op_ids: dict = {}
        for proc in self.proc_names:
            order = []
            for event in schedule.operations_on(proc):
                op = len(self.op_events)
                op_ids[event] = op
                self.op_events.append(event)
                order.append(op)
            self.proc_order.append(order)
        n_ops = len(self.op_events)
        self.op_proc = [self.proc_ids[e.processor] for e in self.op_events]
        self.op_duration = [e.end - e.start for e in self.op_events]
        replica_ids = {
            (e.operation, e.replica): op for op, e in enumerate(self.op_events)
        }

        # --- comms ------------------------------------------------------
        self.comm_events: list = []
        self.link_order: list[list[int]] = []
        comm_ids: dict = {}
        for link in self.link_names:
            order = []
            for event in schedule.comms_on(link):
                comm = len(self.comm_events)
                comm_ids[event] = comm
                self.comm_events.append(event)
                order.append(comm)
            self.link_order.append(order)
        self.comm_link = [self.link_ids[e.link] for e in self.comm_events]
        self.comm_duration = [e.end - e.start for e in self.comm_events]
        self.comm_static_end = [e.end for e in self.comm_events]
        self.comm_src_proc = [
            self.proc_ids[e.source_processor] for e in self.comm_events
        ]
        self.comm_dst_proc = [
            self.proc_ids[e.target_processor] for e in self.comm_events
        ]

        # Hop chains: producer replica for hop 0, previous hop otherwise.
        # One chain per route copy — route-replicated transfers
        # (npl >= 1) run Npl + 1 independent chains side by side.
        final_hop: dict[tuple, int] = {}
        by_chain: dict[tuple, int] = {}
        for comm, event in enumerate(self.comm_events):
            chain = (
                event.source, event.target,
                event.source_replica, event.target_replica, event.route,
            )
            final_hop[chain] = max(final_hop.get(chain, 0), event.hop_index)
            by_chain[(*chain, event.hop_index)] = comm
        self.comm_producer = [-1] * len(self.comm_events)
        self.comm_prev_hop = [-1] * len(self.comm_events)
        self.comm_is_final = [False] * len(self.comm_events)
        for comm, event in enumerate(self.comm_events):
            chain = (
                event.source, event.target,
                event.source_replica, event.target_replica, event.route,
            )
            self.comm_is_final[comm] = event.hop_index == final_hop[chain]
            if event.hop_index == 0:
                producer = schedule.replica(event.source, event.source_replica)
                self.comm_producer[comm] = op_ids[producer]
            else:
                previous = by_chain.get((*chain, event.hop_index - 1))
                if previous is None:
                    raise SimulationError(
                        f"missing hop {event.hop_index - 1} for {event!r}"
                    )
                self.comm_prev_hop[comm] = previous

        # --- input tables: per (op, predecessor) arrival sources --------
        feeding: dict[tuple[str, int, str], list[int]] = {}
        for comm, event in enumerate(self.comm_events):
            if self.comm_is_final[comm]:
                key = (event.target, event.target_replica, event.source)
                feeding.setdefault(key, []).append(comm)
        self.op_inputs: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        for op, event in enumerate(self.op_events):
            entries = []
            for predecessor in algorithm.predecessors(event.operation):
                local = schedule.replica_on(predecessor, event.processor)
                if local is not None and local.end > event.start + 1e-9:
                    local = None
                local_id = op_ids[local] if local is not None else -1
                comms = tuple(
                    feeding.get((event.operation, event.replica, predecessor), ())
                )
                entries.append((local_id, comms))
            self.op_inputs.append(tuple(entries))

        # --- verdict and trace views ------------------------------------
        self.operation_groups = tuple(
            tuple(
                replica_ids[(name, e.replica)]
                for e in schedule.replicas_of(name)
            )
            for name in algorithm.operation_names()
        )
        self.op_group_index = [-1] * n_ops
        for index, group in enumerate(self.operation_groups):
            for op in group:
                self.op_group_index[op] = index
        self.ops_trace_order = tuple(
            op_ids[e] for e in schedule.all_operations()
        )
        self.comms_trace_order = tuple(
            comm_ids[e] for e in schedule.all_comms()
        )

        #: Whether each processor appears in the schedule at all (hosts an
        #: operation, sends or receives a comm) — crashing an uninvolved
        #: processor can never change any decision.
        involved = [False] * len(self.proc_names)
        for proc in self.op_proc:
            involved[proc] = True
        for src, dst in zip(self.comm_src_proc, self.comm_dst_proc):
            involved[src] = involved[dst] = True
        self.proc_involved = tuple(involved)
        self._n_ops = n_ops
        #: Event successor graph of :meth:`proc_cone`, built on first use.
        self._successors: list[list[int]] | None = None
        self._proc_cones: list[int | None] = [None] * len(self.proc_names)
        self._lane_order: list[int] | None | bool = False  # False: not built

    # ------------------------------------------------------------------
    # processor cones
    # ------------------------------------------------------------------
    def _event_successors(self) -> list[list[int]]:
        """Event successor graph (built on first use, then kept).

        Node ids: op ``i`` is node ``i``; comm ``j`` is node
        ``n_ops + j``.  An edge runs wherever a changed outcome can
        influence another decision: data flow (producer→comm→next
        hop→consumer, local feed→consumer) and resource order
        (event→next event on the same processor or link).
        """
        if self._successors is not None:
            return self._successors
        n_ops = self._n_ops
        successors: list[list[int]] = [
            [] for _ in range(n_ops + len(self.comm_events))
        ]
        for order in self.proc_order:
            for before, after in zip(order, order[1:]):
                successors[before].append(after)
        for order in self.link_order:
            for before, after in zip(order, order[1:]):
                successors[n_ops + before].append(n_ops + after)
        replica_ids = {
            (e.operation, e.replica): op for op, e in enumerate(self.op_events)
        }
        for comm, event in enumerate(self.comm_events):
            if self.comm_producer[comm] >= 0:
                successors[self.comm_producer[comm]].append(n_ops + comm)
            if self.comm_prev_hop[comm] >= 0:
                successors[n_ops + self.comm_prev_hop[comm]].append(n_ops + comm)
            if self.comm_is_final[comm]:
                target = replica_ids.get((event.target, event.target_replica))
                if target is not None:
                    successors[n_ops + comm].append(target)
        for op, entries in enumerate(self.op_inputs):
            for local_id, _ in entries:
                if local_id >= 0:
                    successors[local_id].append(op)
        self._successors = successors
        return successors

    def proc_cone(self, proc: int) -> int:
        """Bitmask of the events a failing processor can reach (memoized).

        The closure, over :meth:`_event_successors`, of the processor's
        operations and of the comms it sends or receives.
        """
        cone = self._proc_cones[proc]
        if cone is None:
            n_ops = self._n_ops
            stack = [op for op, owner in enumerate(self.op_proc) if owner == proc]
            stack += [
                n_ops + comm
                for comm, ends in enumerate(
                    zip(self.comm_src_proc, self.comm_dst_proc)
                )
                if proc in ends
            ]
            successors = self._event_successors()
            cone = 0
            while stack:
                node = stack.pop()
                bit = 1 << node
                if cone & bit:
                    continue
                cone |= bit
                stack.extend(successors[node])
            self._proc_cones[proc] = cone
        return cone

    # ------------------------------------------------------------------
    # crash lanes (instant-0 verdicts, one bit per crash subset)
    # ------------------------------------------------------------------
    def lane_order(self) -> list[int] | None:
        """Events in a dependency order for :meth:`crash_lanes` (memoized).

        Operation ``op`` appears as ``op`` and comm ``c`` as ``~c``.  An
        operation follows its processor predecessor, its local feed and
        its input comms; a comm follows its producer or previous hop.
        ``None`` when some event lasts zero time (a zero-length window
        still fits before a crash at instant 0, so completion is no
        longer "resource up") or when the dependencies are cyclic.
        """
        if self._lane_order is not False:
            return self._lane_order
        order = None
        if all(d > 0 for d in self.op_duration) and all(
            d > 0 for d in self.comm_duration
        ):
            n_ops = self._n_ops
            successors: list[list[int]] = [
                [] for _ in range(n_ops + len(self.comm_events))
            ]
            for proc_order in self.proc_order:
                for before, after in zip(proc_order, proc_order[1:]):
                    successors[before].append(after)
            for op, entries in enumerate(self.op_inputs):
                for local_id, comms in entries:
                    if local_id >= 0:
                        successors[local_id].append(op)
                    for comm in comms:
                        successors[n_ops + comm].append(op)
            for comm, producer in enumerate(self.comm_producer):
                source = producer if producer >= 0 else (
                    n_ops + self.comm_prev_hop[comm]
                )
                successors[source].append(n_ops + comm)
            indegree = [0] * len(successors)
            for targets in successors:
                for node in targets:
                    indegree[node] += 1
            ready = [node for node, count in enumerate(indegree) if not count]
            order = []
            while ready:
                node = ready.pop()
                order.append(node if node < n_ops else ~(node - n_ops))
                for after in successors[node]:
                    indegree[after] -= 1
                    if not indegree[after]:
                        ready.append(after)
            if len(order) < len(successors):
                order = None
        self._lane_order = order
        return order

    def crash_lanes(
        self, proc_down: list[int], link_down: list[int], lanes: int
    ) -> int:
        """Masked lanes among ``lanes`` crash subsets, all at instant 0.

        Bit ``i`` of ``proc_down[p]`` (``link_down[l]``) is set when lane
        ``i`` crashes processor ``p`` (breaks link ``l``) at instant 0;
        bit ``i`` of the result is set when that lane is masked.  With
        :attr:`DetectionPolicy.NONE` and positive durations an outcome
        there depends only on which events complete, never on when:

        * a replica completes iff its processor is up, no earlier
          replica in the processor's static order starved, and every
          predecessor has a completed local replica or a delivered
          incoming comm (a replica on a down processor is lost and
          blocks nothing);
        * a comm is delivered iff its producer completed (or its
          previous hop was delivered) and its sender, link and
          destination are up.

        One pass over :meth:`lane_order` therefore answers every lane,
        each event value an int bitset.  The caller must check
        :meth:`lane_order` is not ``None`` and that the baseline replay
        is clean (see :class:`~repro.simulation.batch.BatchScenarioEngine`).
        """
        full = (1 << lanes) - 1
        up = [full ^ down for down in proc_down]
        link_up = [full ^ down for down in link_down]
        run = list(up)
        done = [0] * self._n_ops
        delivered = [0] * len(self.comm_events)
        op_proc = self.op_proc
        op_inputs = self.op_inputs
        comm_producer = self.comm_producer
        comm_prev_hop = self.comm_prev_hop
        comm_link = self.comm_link
        comm_dst = self.comm_dst_proc
        for node in self.lane_order():
            if node >= 0:
                proc = op_proc[node]
                live = run[proc]
                if live:
                    for local_id, comms in op_inputs[node]:
                        arrived = done[local_id] if local_id >= 0 else 0
                        for comm in comms:
                            arrived |= delivered[comm]
                        live &= arrived
                        if not live:
                            break
                    run[proc] = live
                    done[node] = live
            else:
                comm = ~node
                producer = comm_producer[comm]
                data = (
                    done[producer]
                    if producer >= 0
                    else delivered[comm_prev_hop[comm]]
                )
                # ``data`` already implies the sender is up: hop 0 needs
                # its producer to complete there, a later hop needs the
                # previous hop delivered there.
                if data:
                    delivered[comm] = (
                        data & link_up[comm_link[comm]] & up[comm_dst[comm]]
                    )
        masked = full
        for group in self.operation_groups:
            reached = 0
            for op in group:
                reached |= done[op]
            masked &= reached
            if not masked:
                break
        return masked

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay(
        self,
        scenario: FailureScenario | None = None,
        detection: DetectionPolicy = DetectionPolicy.NONE,
        verdict_only: bool = False,
        queries=None,
        initial_knowledge: dict[str, set[str]] | None = None,
    ) -> CompiledTrace:
        """Replay the schedule under ``scenario`` on the compiled arrays.

        ``verdict_only`` stops as soon as every operation has a
        completed replica — exact for masking checks, but the returned
        trace is marked ``truncated``.

        ``initial_knowledge`` seeds the failure-detection arrays
        (option 2): ``{observer: {known_faulty, ...}}`` by processor
        name, each entry effective from t = 0.  This is how detection
        knowledge persists across the iterations of the cyclic
        execution (section 5: "avoid further comms to the faulty
        processors in ... the subsequent iterations").
        """
        if queries is None:
            queries = _queries(self, scenario)
        detection = DetectionPolicy(detection)
        timeout_array = detection is DetectionPolicy.TIMEOUT_ARRAY
        n_ops = self._n_ops
        n_comms = len(self.comm_events)

        op_status = [UNDECIDED] * n_ops
        op_start: list = [None] * n_ops
        op_end: list = [None] * n_ops
        comm_status = [UNDECIDED] * n_comms
        comm_start: list = [None] * n_comms
        comm_end: list = [None] * n_comms
        comm_delivered = [False] * n_comms
        state = CompiledTrace(
            op_status, op_start, op_end,
            comm_status, comm_start, comm_end, comm_delivered,
        )

        proc_index = [0] * len(self.proc_names)
        proc_free = [0.0] * len(self.proc_names)
        proc_blocked = [False] * len(self.proc_names)
        link_index = [0] * len(self.link_names)
        link_free = [0.0] * len(self.link_names)
        knowledge = state.knowledge
        if initial_knowledge:
            proc_ids = self.proc_ids
            for observer, faulty_set in initial_knowledge.items():
                for faulty in faulty_set:
                    if observer not in proc_ids or faulty not in proc_ids:
                        raise SimulationError(
                            f"detection knowledge {observer!r} -> "
                            f"{faulty!r} names a processor the schedule "
                            f"lacks"
                        )
                    _learn(
                        knowledge, proc_ids[observer], proc_ids[faulty], 0.0
                    )

        undecided = n_ops + n_comms
        verdict_pending = -1
        if verdict_only:
            # Countdown of the operations still without a completed
            # replica.
            op_group = self.op_group_index
            group_done = [False] * len(self.operation_groups)
            verdict_pending = len(group_done)
            if verdict_pending == 0:
                state.truncated = True
                return state

        decisions = 0

        # Local bindings for the hot loop.
        op_inputs = self.op_inputs
        op_duration = self.op_duration
        op_proc = self.op_proc
        comm_duration = self.comm_duration
        comm_producer = self.comm_producer
        comm_prev_hop = self.comm_prev_hop
        comm_link = self.comm_link
        comm_src = self.comm_src_proc
        comm_dst = self.comm_dst_proc
        comm_static_end = self.comm_static_end
        next_window = queries.next_window
        transmit_window = queries.transmit_window
        is_up = queries.is_up

        def input_ready(op: int, relaxed: bool):
            """First complete input set of one replica (None = never)."""
            ready = 0.0
            for local_id, comms in op_inputs[op]:
                candidates = []
                if local_id >= 0 and op_status[local_id] == COMPLETED:
                    candidates.append(op_end[local_id])
                for comm in comms:
                    status = comm_status[comm]
                    if status == UNDECIDED:
                        if relaxed:
                            continue
                        raise SimulationError(
                            f"undecided arrival {self.comm_events[comm]!r}"
                        )
                    if status == COMPLETED and comm_delivered[comm]:
                        candidates.append(comm_end[comm])
                if not candidates:
                    return None
                ready = max(ready, min(candidates))
            return ready

        def decide_operation(op: int, proc: int, relaxed: bool) -> None:
            nonlocal decisions, verdict_pending
            decisions += 1
            duration = op_duration[op]
            if next_window(proc, proc_free[proc], duration) is None:
                op_status[op] = LOST
                return
            ready = input_ready(op, relaxed)
            if ready is None:
                op_status[op] = STARVED
                proc_blocked[proc] = True
                return
            start = next_window(proc, max(ready, proc_free[proc]), duration)
            if start is None:
                op_status[op] = LOST
                return
            end = start + duration
            op_status[op] = COMPLETED
            op_start[op] = start
            op_end[op] = end
            proc_free[proc] = end
            if verdict_pending > 0:
                group = op_group[op]
                if not group_done[group]:
                    group_done[group] = True
                    verdict_pending -= 1

        def starve_rest(proc: int) -> None:
            nonlocal undecided
            order = self.proc_order[proc]
            for op in order[proc_index[proc]:]:
                if op_status[op] == UNDECIDED:
                    op_status[op] = STARVED
                    undecided -= 1
            proc_index[proc] = len(order)

        def decide_comm(comm: int) -> None:
            nonlocal decisions
            decisions += 1
            producer = comm_producer[comm]
            if producer >= 0:
                if op_status[producer] != COMPLETED:
                    data_ready = None
                else:
                    data_ready = op_end[producer]
            else:
                previous = comm_prev_hop[comm]
                if comm_status[previous] != COMPLETED or not comm_delivered[previous]:
                    data_ready = None
                else:
                    data_ready = comm_end[previous]
            if data_ready is None:
                if timeout_array:
                    _learn(
                        knowledge, comm_dst[comm], comm_src[comm],
                        comm_static_end[comm],
                    )
                comm_status[comm] = SKIPPED
                return
            link = comm_link[comm]
            duration = comm_duration[comm]
            earliest = max(link_free[link], data_ready)
            start = transmit_window(comm_src[comm], link, earliest, duration)
            if start is None:
                if timeout_array:
                    _learn(
                        knowledge, comm_dst[comm], comm_src[comm],
                        comm_static_end[comm],
                    )
                comm_status[comm] = LOST
                return
            if timeout_array:
                learned = knowledge.get((comm_src[comm], comm_dst[comm]))
                if learned is not None and learned <= start:
                    comm_status[comm] = SKIPPED
                    return
            end = start + duration
            comm_status[comm] = COMPLETED
            comm_start[comm] = start
            comm_end[comm] = end
            comm_delivered[comm] = is_up(comm_dst[comm], end)
            link_free[link] = end

        while True:
            progress = False
            for link, order in enumerate(self.link_order):
                i = link_index[link]
                while i < len(order):
                    comm = order[i]
                    producer = comm_producer[comm]
                    if producer >= 0:
                        if op_status[producer] == UNDECIDED:
                            break
                    elif comm_status[comm_prev_hop[comm]] == UNDECIDED:
                        break
                    decide_comm(comm)
                    undecided -= 1
                    i += 1
                    progress = True
                link_index[link] = i
            for proc, order in enumerate(self.proc_order):
                if proc_blocked[proc]:
                    continue
                i = proc_index[proc]
                while i < len(order):
                    op = order[i]
                    if not _operation_ready(
                        op, op_inputs, op_status, comm_status
                    ):
                        break
                    decide_operation(op, proc, relaxed=False)
                    undecided -= 1
                    if proc_blocked[proc]:
                        proc_index[proc] = i + 1
                        starve_rest(proc)
                        i = proc_index[proc]
                    else:
                        i += 1
                    progress = True
                    if verdict_pending == 0:
                        state.decisions = decisions
                        state.truncated = True
                        return state
                proc_index[proc] = i
            if progress:
                continue
            if undecided == 0:
                break
            # Stalled worklist: fire the pending operation with the
            # earliest candidate start (the relaxation rule).
            best = None
            for proc, order in enumerate(self.proc_order):
                if proc_blocked[proc] or proc_index[proc] >= len(order):
                    continue
                op = order[proc_index[proc]]
                ready = input_ready(op, relaxed=True)
                if ready is None:
                    continue
                candidate = (max(ready, proc_free[proc]), proc)
                if best is None or candidate < best:
                    best = candidate
            if best is None:
                break
            proc = best[1]
            op = self.proc_order[proc][proc_index[proc]]
            decide_operation(op, proc, relaxed=True)
            undecided -= 1
            state.relaxed_fires += 1
            if proc_blocked[proc]:
                proc_index[proc] += 1
                starve_rest(proc)
            else:
                proc_index[proc] += 1
            if verdict_pending == 0:
                state.decisions = decisions
                state.truncated = True
                return state

        # Drain: blocked operations starve, unreachable comms are skipped.
        if undecided:
            for status_list, terminal in (
                (op_status, STARVED), (comm_status, SKIPPED)
            ):
                for index, status in enumerate(status_list):
                    if status == UNDECIDED:
                        status_list[index] = terminal
        state.decisions = decisions
        return state


def _operation_ready(
    op: int, op_inputs, op_status, comm_status
) -> bool:
    """Conservative readiness: every potential arrival is decided."""
    for local_id, comms in op_inputs[op]:
        if local_id >= 0 and op_status[local_id] == UNDECIDED:
            return False
        for comm in comms:
            if comm_status[comm] == UNDECIDED:
                return False
    return True


def _learn(
    knowledge: dict[tuple[int, int], float],
    observer: int,
    faulty: int,
    at: float,
) -> None:
    """Record a failure detection (keep the earliest time)."""
    key = (observer, faulty)
    known = knowledge.get(key, math.inf)
    if at < known:
        knowledge[key] = at


def simulate(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    scenario: FailureScenario | None = None,
    detection: DetectionPolicy = DetectionPolicy.NONE,
) -> ExecutionTrace:
    """One-call API: simulate ``schedule`` under ``scenario``.

    Compiles the schedule for this one replay; a caller replaying many
    scenarios should build one :class:`CompiledSchedule` and call
    :meth:`CompiledSchedule.replay` per scenario instead.
    """
    compiled = CompiledSchedule(schedule, algorithm)
    return compiled.replay(scenario, detection).to_trace(compiled)
