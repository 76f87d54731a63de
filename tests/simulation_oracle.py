"""Paper-literal simulation oracle: the object executor of section 5.

The reference implementation the production simulator
(:meth:`repro.simulation.compiled.CompiledSchedule.replay`, reached
through :func:`repro.simulation.compiled.simulate`) is pinned against:
``tests/test_batch_simulation.py`` diffs every trace of its corpus
(operations, comms, detections) against :meth:`ScheduleSimulator.run`,
and ``tests/certify_oracle.py`` replays one scenario per crash subset
with it.  It walks the schedule's objects directly — frozen-dataclass
dict keys, name-keyed resource tables, an O(comms) previous-hop scan —
so it is slow, and it is kept only as the oracle.

The simulator enforces the paper's runtime semantics:

* every processor executes its operation replicas in the static order;
  an operation starts when the processor is free *and* the first
  complete set of inputs has arrived (one value per predecessor — the
  ``Npf`` later input sets are ignored);
* every link transmits its comms in the static order among those whose
  data exists; a comm whose producer is silent simply never occupies the
  medium (fail-silence: nothing is transmitted, no timeout is needed on
  the critical path);
* a processor that is down is silent: its operations produce nothing
  and its comms are never sent; an intermittent processor resumes its
  static sequence when it recovers;
* failure detection is optional (section 5's two options): with
  :attr:`DetectionPolicy.TIMEOUT_ARRAY` every processor learns that a
  sender is faulty when an expected comm does not arrive by its static
  date, and suppresses its own future sends toward known-faulty
  processors (which relieves the links but gives up on intermittent
  recovery — including after detection *mistakes*, which the paper
  acknowledges).

Implementation note.  Events are decided by a worklist that follows the
resource total orders and the data dependencies.  An operation normally
waits until *all* its potential arrivals are decided (so the first
complete input set is known exactly); on rare topologies this
conservative rule can stall even though the real system would proceed
with the arrivals already at hand, so a stalled worklist fires the
pending operation with the earliest candidate start among those whose
every predecessor already has one delivered input — exactly what the
blocking-receive executive would observe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import SimulationError
from repro.graphs.algorithm import AlgorithmGraph
from repro.schedule.events import ScheduledComm, ScheduledOperation
from repro.schedule.schedule import Schedule
from repro.simulation.failures import DetectionPolicy, FailureScenario
from repro.simulation.trace import (
    EventStatus,
    ExecutionTrace,
    SimulatedComm,
    SimulatedOperation,
)


@dataclass
class _ProcessorState:
    events: tuple[ScheduledOperation, ...]
    index: int = 0
    free_at: float = 0.0
    blocked: bool = False

    @property
    def pending(self) -> ScheduledOperation | None:
        if self.blocked or self.index >= len(self.events):
            return None
        return self.events[self.index]


@dataclass
class _LinkState:
    events: tuple[ScheduledComm, ...]
    index: int = 0
    free_at: float = 0.0

    @property
    def pending(self) -> ScheduledComm | None:
        if self.index >= len(self.events):
            return None
        return self.events[self.index]


@dataclass
class _Knowledge:
    """Per-processor array of known-faulty processors (detection times)."""

    table: dict[str, dict[str, float]] = field(default_factory=dict)

    def learn(self, observer: str, faulty: str, at: float) -> None:
        known = self.table.setdefault(observer, {})
        known[faulty] = min(known.get(faulty, math.inf), at)

    def knows_at(self, observer: str, faulty: str, at: float) -> bool:
        return self.table.get(observer, {}).get(faulty, math.inf) <= at

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {p: dict(k) for p, k in self.table.items()}


class ScheduleSimulator:
    """Replays one static schedule under arbitrary failure scenarios.

    Build it once per schedule; :meth:`run` is side-effect free and can
    be called with many scenarios (the nominal run is simply
    ``run(FailureScenario.none())``).
    """

    def __init__(
        self,
        schedule: Schedule,
        algorithm: AlgorithmGraph,
        detection: DetectionPolicy = DetectionPolicy.NONE,
    ) -> None:
        self._schedule = schedule
        self._algorithm = algorithm
        self._detection = DetectionPolicy(detection)
        #: Cumulative event decisions across every :meth:`run` of this
        #: instance — the work measure the batch engine is benchmarked
        #: against (decided operations + comms; drained events excluded).
        self.decisions = 0
        #: Cumulative number of :meth:`run` invocations (scenarios replayed).
        self.runs = 0
        for operation in algorithm.operation_names():
            if not schedule.replicas_of(operation):
                raise SimulationError(
                    f"operation {operation!r} of the algorithm is not in the "
                    f"schedule"
                )
        self._final_hop_index = self._compute_final_hops()
        self._feeding_comms = self._compute_feeding_comms()

    # ------------------------------------------------------------------
    # static precomputation
    # ------------------------------------------------------------------
    def _compute_final_hops(self) -> dict[tuple, int]:
        """Last hop index of every comm chain (multi-hop routes).

        A chain is one route copy of one transfer: route-replicated
        transfers (``npl >= 1``) have ``Npl + 1`` independent chains per
        ``(source, target, replica pair)``.
        """
        last: dict[tuple, int] = {}
        for comm in self._schedule.all_comms():
            key = self._chain_key(comm)
            last[key] = max(last.get(key, 0), comm.hop_index)
        return last

    @staticmethod
    def _chain_key(comm: ScheduledComm) -> tuple:
        return (
            comm.source, comm.target,
            comm.source_replica, comm.target_replica, comm.route,
        )

    def _is_final_hop(self, comm: ScheduledComm) -> bool:
        return comm.hop_index == self._final_hop_index[self._chain_key(comm)]

    def _compute_feeding_comms(
        self,
    ) -> dict[tuple[str, int, str], tuple[ScheduledComm, ...]]:
        """Final-hop comms feeding each (operation, replica) per predecessor."""
        feeding: dict[tuple[str, int, str], list[ScheduledComm]] = {}
        for comm in self._schedule.all_comms():
            if not self._is_final_hop(comm):
                continue
            key = (comm.target, comm.target_replica, comm.source)
            feeding.setdefault(key, []).append(comm)
        return {k: tuple(v) for k, v in feeding.items()}

    def _feeding_local(
        self, event: ScheduledOperation, predecessor: str
    ) -> ScheduledOperation | None:
        """The co-located predecessor replica that feeds ``event``, if any.

        A replica of the predecessor hosted by the same processor counts
        as a feed only when the static schedule runs it *before* the
        consumer — an extra replica duplicated later (for another
        consumer) ends after ``event`` starts and cannot feed it.
        """
        local = self._schedule.replica_on(predecessor, event.processor)
        if local is None or local.end > event.start + 1e-9:
            return None
        return local

    def _previous_hop(self, comm: ScheduledComm) -> ScheduledComm | None:
        if comm.hop_index == 0:
            return None
        for other in self._schedule.all_comms():
            if (
                other.source == comm.source
                and other.target == comm.target
                and other.source_replica == comm.source_replica
                and other.target_replica == comm.target_replica
                and other.route == comm.route
                and other.hop_index == comm.hop_index - 1
            ):
                return other
        raise SimulationError(f"missing hop {comm.hop_index - 1} for {comm!r}")

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def run(
        self,
        scenario: FailureScenario | None = None,
        initial_knowledge: dict[str, set[str]] | None = None,
    ) -> ExecutionTrace:
        """Simulate the schedule under ``scenario`` (nominal when None).

        ``initial_knowledge`` seeds the failure-detection arrays
        (option 2): ``{observer: {known_faulty, ...}}`` effective from
        t = 0 — this is how detection knowledge persists across the
        iterations of the cyclic execution (section 5: "avoid further
        comms to the faulty processors in ... the subsequent
        iterations").
        """
        scenario = scenario or FailureScenario.none()
        self.runs += 1
        processors = {
            p: _ProcessorState(self._schedule.operations_on(p))
            for p in self._schedule.processor_names()
        }
        links = {
            l: _LinkState(self._schedule.comms_on(l))
            for l in self._schedule.link_names()
        }
        op_outcomes: dict[ScheduledOperation, SimulatedOperation] = {}
        comm_outcomes: dict[ScheduledComm, SimulatedComm] = {}
        knowledge = _Knowledge()
        if initial_knowledge:
            for observer, faulty_set in initial_knowledge.items():
                for faulty in faulty_set:
                    knowledge.learn(observer, faulty, 0.0)

        while True:
            progress = self._sweep(
                processors, links, op_outcomes, comm_outcomes, knowledge, scenario
            )
            if progress:
                continue
            if self._relaxed_fire(
                processors, op_outcomes, comm_outcomes, scenario
            ):
                continue
            break

        self._finalize(processors, links, op_outcomes, comm_outcomes)
        return ExecutionTrace(
            operations=[op_outcomes[e] for e in self._schedule.all_operations()],
            comms=[comm_outcomes[e] for e in self._schedule.all_comms()],
            detections=knowledge.as_dict(),
        )

    # ------------------------------------------------------------------
    # one worklist sweep
    # ------------------------------------------------------------------
    def _sweep(
        self,
        processors: dict[str, _ProcessorState],
        links: dict[str, _LinkState],
        op_outcomes: dict,
        comm_outcomes: dict,
        knowledge: _Knowledge,
        scenario: FailureScenario,
    ) -> bool:
        progress = False
        for name in sorted(links):
            state = links[name]
            while True:
                comm = state.pending
                if comm is None or not self._comm_ready(comm, op_outcomes, comm_outcomes):
                    break
                self._decide_comm(
                    comm, state, op_outcomes, comm_outcomes, knowledge, scenario
                )
                state.index += 1
                progress = True
        for name in sorted(processors):
            state = processors[name]
            while True:
                event = state.pending
                if event is None or not self._operation_ready(
                    event, op_outcomes, comm_outcomes
                ):
                    break
                self._decide_operation(
                    event, state, op_outcomes, comm_outcomes, scenario,
                    relaxed=False,
                )
                if state.blocked:
                    # A blocking receive never completes: the executive
                    # is stuck, so every later operation of this
                    # processor starves too.  Deciding them *now* (not
                    # at drain time) lets their outgoing comms take the
                    # normal decision path, where the receivers register
                    # the missed comms in their failure-detection arrays.
                    self._starve_rest(state, op_outcomes)
                else:
                    state.index += 1
                progress = True
        return progress

    @staticmethod
    def _starve_rest(state: _ProcessorState, op_outcomes: dict) -> None:
        for event in state.events[state.index:]:
            if event not in op_outcomes:
                op_outcomes[event] = SimulatedOperation(
                    event.operation,
                    event.replica,
                    event.processor,
                    EventStatus.STARVED,
                )
        state.index = len(state.events)

    # ------------------------------------------------------------------
    # readiness predicates (conservative rule)
    # ------------------------------------------------------------------
    def _comm_ready(
        self, comm: ScheduledComm, op_outcomes: dict, comm_outcomes: dict
    ) -> bool:
        if comm.hop_index == 0:
            producer = self._schedule.replica(comm.source, comm.source_replica)
            return producer in op_outcomes
        return self._previous_hop(comm) in comm_outcomes

    def _operation_ready(
        self,
        event: ScheduledOperation,
        op_outcomes: dict,
        comm_outcomes: dict,
    ) -> bool:
        for predecessor in self._algorithm.predecessors(event.operation):
            local = self._feeding_local(event, predecessor)
            if local is not None and local not in op_outcomes:
                return False
            for comm in self._feeding_comms.get(
                (event.operation, event.replica, predecessor), ()
            ):
                if comm not in comm_outcomes:
                    return False
        return True

    # ------------------------------------------------------------------
    # event decisions
    # ------------------------------------------------------------------
    def _decide_comm(
        self,
        comm: ScheduledComm,
        state: _LinkState,
        op_outcomes: dict,
        comm_outcomes: dict,
        knowledge: _Knowledge,
        scenario: FailureScenario,
    ) -> None:
        self.decisions += 1
        data_ready = self._comm_data_ready(comm, op_outcomes, comm_outcomes)
        if data_ready is None:
            # The producer was silent: nothing was ever transmitted.  The
            # receiver expected the data by the comm's static date — with
            # option 2 that is exactly when it marks the sender faulty.
            if self._detection is DetectionPolicy.TIMEOUT_ARRAY:
                knowledge.learn(comm.target_processor, comm.source_processor, comm.end)
            comm_outcomes[comm] = self._comm_outcome(comm, EventStatus.SKIPPED)
            return
        duration = comm.end - comm.start
        earliest = max(state.free_at, data_ready)
        start = _transmit_window(
            scenario, comm.source_processor, comm.link, earliest, duration
        )
        if start is None:
            # Sender died between producing the data and sending it, or
            # the medium broke for good.  Either way the receiver only
            # observes a missing comm and (option 2) blames the sender —
            # a broken link thus produces the "detection mistakes" the
            # paper warns about.
            if self._detection is DetectionPolicy.TIMEOUT_ARRAY:
                knowledge.learn(comm.target_processor, comm.source_processor, comm.end)
            comm_outcomes[comm] = self._comm_outcome(comm, EventStatus.LOST)
            return
        if self._detection is DetectionPolicy.TIMEOUT_ARRAY and knowledge.knows_at(
            comm.source_processor, comm.target_processor, start
        ):
            # Option 2: do not waste the medium on a known-faulty target.
            comm_outcomes[comm] = self._comm_outcome(comm, EventStatus.SKIPPED)
            return
        end = start + duration
        delivered = scenario.is_up(comm.target_processor, end)
        comm_outcomes[comm] = self._comm_outcome(
            comm, EventStatus.COMPLETED, start=start, end=end, delivered=delivered
        )
        state.free_at = end

    def _comm_data_ready(
        self, comm: ScheduledComm, op_outcomes: dict, comm_outcomes: dict
    ) -> float | None:
        if comm.hop_index == 0:
            producer = self._schedule.replica(comm.source, comm.source_replica)
            outcome = op_outcomes[producer]
            if outcome.status is not EventStatus.COMPLETED:
                return None
            return outcome.end
        previous = comm_outcomes[self._previous_hop(comm)]
        if previous.status is not EventStatus.COMPLETED or not previous.delivered:
            return None
        return previous.end

    @staticmethod
    def _comm_outcome(
        comm: ScheduledComm,
        status: EventStatus,
        start: float | None = None,
        end: float | None = None,
        delivered: bool = False,
    ) -> SimulatedComm:
        return SimulatedComm(
            source=comm.source,
            target=comm.target,
            source_replica=comm.source_replica,
            target_replica=comm.target_replica,
            link=comm.link,
            source_processor=comm.source_processor,
            target_processor=comm.target_processor,
            hop_index=comm.hop_index,
            route=comm.route,
            status=status,
            start=start,
            end=end,
            delivered=delivered,
        )

    def _decide_operation(
        self,
        event: ScheduledOperation,
        state: _ProcessorState,
        op_outcomes: dict,
        comm_outcomes: dict,
        scenario: FailureScenario,
        relaxed: bool,
    ) -> None:
        self.decisions += 1
        duration = event.end - event.start
        # Dead processor shortcut: no execution window will ever open.
        if scenario.next_window(event.processor, state.free_at, duration) is None:
            op_outcomes[event] = SimulatedOperation(
                event.operation, event.replica, event.processor, EventStatus.LOST
            )
            return
        ready = self._input_ready(event, op_outcomes, comm_outcomes, relaxed)
        if ready is None:
            # Blocking receive that will never be satisfied: the replica
            # starves and the static executive blocks the processor.
            op_outcomes[event] = SimulatedOperation(
                event.operation, event.replica, event.processor, EventStatus.STARVED
            )
            state.blocked = True
            return
        start = scenario.next_window(
            event.processor, max(ready, state.free_at), duration
        )
        if start is None:
            op_outcomes[event] = SimulatedOperation(
                event.operation, event.replica, event.processor, EventStatus.LOST
            )
            return
        end = start + duration
        op_outcomes[event] = SimulatedOperation(
            event.operation,
            event.replica,
            event.processor,
            EventStatus.COMPLETED,
            start=start,
            end=end,
        )
        state.free_at = end

    def _input_ready(
        self,
        event: ScheduledOperation,
        op_outcomes: dict,
        comm_outcomes: dict,
        relaxed: bool,
    ) -> float | None:
        """First complete input set of one replica (None = never)."""
        ready = 0.0
        for predecessor in self._algorithm.predecessors(event.operation):
            candidates: list[float] = []
            local = self._feeding_local(event, predecessor)
            if local is not None:
                outcome = op_outcomes.get(local)
                if outcome is not None and outcome.status is EventStatus.COMPLETED:
                    candidates.append(outcome.end)
            for comm in self._feeding_comms.get(
                (event.operation, event.replica, predecessor), ()
            ):
                outcome = comm_outcomes.get(comm)
                if outcome is None:
                    if relaxed:
                        continue
                    raise SimulationError(  # pragma: no cover - guarded by _operation_ready
                        f"undecided arrival {comm!r} for {event!r}"
                    )
                if outcome.status is EventStatus.COMPLETED and outcome.delivered:
                    candidates.append(outcome.end)
            if not candidates:
                return None
            ready = max(ready, min(candidates))
        return ready

    # ------------------------------------------------------------------
    # stall relaxation
    # ------------------------------------------------------------------
    def _relaxed_fire(
        self,
        processors: dict[str, _ProcessorState],
        op_outcomes: dict,
        comm_outcomes: dict,
        scenario: FailureScenario,
    ) -> bool:
        """Fire the stalled operation with the earliest candidate start.

        Only operations whose every predecessor already has one
        delivered arrival qualify — exactly the state in which the real
        blocking-receive executive would have started them already.
        """
        best: tuple[float, str] | None = None
        for name in sorted(processors):
            state = processors[name]
            event = state.pending
            if event is None:
                continue
            ready = self._input_ready(event, op_outcomes, comm_outcomes, relaxed=True)
            if ready is None:
                continue
            candidate = (max(ready, state.free_at), name)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return False
        state = processors[best[1]]
        event = state.pending
        self._decide_operation(
            event, state, op_outcomes, comm_outcomes, scenario, relaxed=True
        )
        if state.blocked:
            self._starve_rest(state, op_outcomes)
        else:
            state.index += 1
        return True

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def _finalize(
        self,
        processors: dict[str, _ProcessorState],
        links: dict[str, _LinkState],
        op_outcomes: dict,
        comm_outcomes: dict,
    ) -> None:
        """Mark every undecided event: blocked ops starve, comms are skipped."""
        for state in processors.values():
            for event in state.events[state.index:]:
                if event not in op_outcomes:
                    op_outcomes[event] = SimulatedOperation(
                        event.operation,
                        event.replica,
                        event.processor,
                        EventStatus.STARVED,
                    )
        for state in links.values():
            for comm in state.events[state.index:]:
                if comm not in comm_outcomes:
                    comm_outcomes[comm] = self._comm_outcome(
                        comm, EventStatus.SKIPPED
                    )


def _transmit_window(
    scenario: FailureScenario,
    sender: str,
    link: str,
    earliest: float,
    duration: float,
) -> float | None:
    """Earliest window where both the sender and the medium are up.

    Alternates between the two resources' next-window searches until
    they agree; each round advances past at least one down interval, so
    the search terminates.
    """
    cursor = earliest
    while True:
        sender_ok = scenario.next_window(sender, cursor, duration)
        if sender_ok is None:
            return None
        link_ok = scenario.link_next_window(link, sender_ok, duration)
        if link_ok is None:
            return None
        if link_ok == sender_ok:
            return link_ok
        cursor = link_ok


def simulate(
    schedule: Schedule,
    algorithm: AlgorithmGraph,
    scenario: FailureScenario | None = None,
    detection: DetectionPolicy = DetectionPolicy.NONE,
) -> ExecutionTrace:
    """One-call API: simulate ``schedule`` under ``scenario``."""
    return ScheduleSimulator(schedule, algorithm, detection).run(scenario)
