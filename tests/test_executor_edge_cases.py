"""Edge-case tests for the runtime simulator.

Covers the corners the main executor tests do not reach: multi-hop
relays through failing processors, head-of-line blocking on links,
failure-detection mistakes (section 5's last paragraph), and staggered
multi-failure arrivals (section 4.4: "several failures in a row can be
tolerated").
"""

import pytest

from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.graphs.algorithm import from_dependencies
from repro.graphs.builder import linear_chain
from repro.hardware.architecture import Architecture
from repro.hardware.link import Link
from repro.problem import ProblemSpec
from repro.simulation.compiled import simulate
from repro.simulation.failures import (
    DetectionPolicy,
    FailureScenario,
    ProcessorFailure,
)
from repro.simulation.trace import EventStatus
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes

from tests.util import uniform_problem


# The relay placement needs the processor-aware pressure: the paper's
# start-time-only formula would keep B on the slow local processor.
_AWARE = SchedulerOptions(processor_aware_pressure=True)


def line_architecture() -> Architecture:
    arc = Architecture("line")
    for name in ("P1", "P2", "P3"):
        arc.add_processor(name)
    arc.add_link(Link.between("L1.2", "P1", "P2"))
    arc.add_link(Link.between("L2.3", "P2", "P3"))
    return arc


class TestMultiHopRelays:
    def relay_problem(self) -> ProblemSpec:
        algorithm = from_dependencies([("A", "B")])
        architecture = line_architecture()
        exec_times = ExecutionTimes.from_rows(
            ("P1", "P2", "P3"),
            {"A": (1.0, 5.0, 5.0), "B": (5.0, 5.0, 1.0)},
        )
        comm_times = CommunicationTimes.uniform(
            [("A", "B")], ("L1.2", "L2.3"), 0.5
        )
        return ProblemSpec(
            algorithm=algorithm,
            architecture=architecture,
            exec_times=exec_times,
            comm_times=comm_times,
            npf=0,
            name="relay",
        )

    def test_relay_delivery_in_nominal_run(self):
        result = schedule_ftbar(self.relay_problem(), _AWARE)
        # A lands on P1 and B on P3 (the fast processors), so the data
        # relays through P2.
        assert result.schedule.replica_on("A", "P1") is not None
        assert result.schedule.replica_on("B", "P3") is not None
        hops = result.schedule.comms_for_edge("A", "B")
        assert [h.hop_index for h in hops] == [0, 1]
        trace = simulate(result.schedule, result.expanded_algorithm)
        assert trace.first_completion("B") is not None

    def test_dead_relay_loses_the_data(self):
        result = schedule_ftbar(self.relay_problem(), _AWARE)
        trace = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario.crash("P2"),
        )
        # P2 only relays, but fail-silence kills the second hop.
        statuses = {c.hop_index: c.status for c in trace.comms}
        assert statuses[1] in (EventStatus.SKIPPED, EventStatus.LOST)
        assert trace.first_completion("B") is None

    def test_relay_down_at_delivery_loses_the_iteration(self):
        # A static executive never retries: if the relay is down when
        # the first hop delivers, the data is gone for this iteration
        # even though the relay later recovers.
        result = schedule_ftbar(self.relay_problem(), _AWARE)
        trace = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario.intermittent("P2", 0.0, 10.0),
        )
        assert trace.first_completion("B") is None

    def test_relay_recovered_before_delivery_is_transparent(self):
        result = schedule_ftbar(self.relay_problem(), _AWARE)
        nominal = simulate(result.schedule, result.expanded_algorithm)
        # P2 is down only before the first hop delivers (A ends at 1.0,
        # the hop delivers at 1.5): the relay never misses anything.
        recovered = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario.intermittent("P2", 0.0, 1.2),
        )
        assert recovered.first_completion("B") == pytest.approx(
            nominal.first_completion("B")
        )


class TestHeadOfLineBlocking:
    def test_delayed_comm_blocks_later_comms_on_same_link(self):
        # Hand-built schedule: two comms on one link; the first one's
        # producer is delayed by an intermittent failure, so the second
        # comm (whose data is ready early) must still wait (the static
        # total order on the link is preserved).
        schedule = Schedule(processors=["P1", "P2"], links=["L"], npf=0)
        schedule.place_operation("A", "P1", 0.0, 1.0)
        schedule.place_operation("B", "P1", 1.0, 1.0)
        schedule.place_comm("A", "X", 0, 0, "L", 2.0, 1.0, "P1", "P2")
        schedule.place_comm("B", "Y", 0, 0, "L", 3.0, 1.0, "P1", "P2")
        schedule.place_operation("X", "P2", 3.0, 1.0)
        schedule.place_operation("Y", "P2", 4.0, 1.0)
        algorithm = from_dependencies([("A", "X"), ("B", "Y")])
        # Delay A (and thus the first comm) by failing P1 early on; B
        # runs after recovery, then both comms go out in order.
        trace = simulate(
            schedule, algorithm, FailureScenario.intermittent("P1", 0.0, 5.0)
        )
        first = next(c for c in trace.comms if c.source == "A")
        second = next(c for c in trace.comms if c.source == "B")
        assert first.status is EventStatus.COMPLETED
        assert second.status is EventStatus.COMPLETED
        assert second.start >= first.end - 1e-9


class TestDetectionMistakes:
    def test_starving_sender_is_wrongly_detected_as_faulty(self):
        # T0 replicas live on two processors; kill both so T1 starves.
        # T1's processor then never sends T1's data, and downstream
        # processors "detect" T1's host as faulty even though it is
        # healthy — the paper's "failure detection mistakes".
        problem = uniform_problem(linear_chain(3), processors=4, npf=1)
        result = schedule_ftbar(problem)
        schedule = result.schedule
        hosts = {r.processor for r in schedule.replicas_of("T0")}
        trace = simulate(
            schedule,
            result.expanded_algorithm,
            FailureScenario.crashes(hosts),
            DetectionPolicy.TIMEOUT_ARRAY,
        )
        healthy_t1_hosts = {
            r.processor
            for r in schedule.replicas_of("T1")
            if r.processor not in hosts
        }
        wrongly_accused = {
            faulty
            for known in trace.detections.values()
            for faulty in known
            if faulty in healthy_t1_hosts
        }
        # At least one healthy processor is accused whenever T1's data
        # was expected over a link.
        expected_comms = [
            c
            for c in schedule.all_comms()
            if c.source == "T1" and c.source_processor in healthy_t1_hosts
        ]
        if expected_comms:
            assert wrongly_accused


class TestStaggeredFailures:
    def test_two_failures_in_a_row_masked_with_npf2(self):
        problem = uniform_problem(linear_chain(4), processors=4, npf=2)
        result = schedule_ftbar(problem)
        algorithm = result.expanded_algorithm
        makespan = result.makespan
        # One crash at t=0 and a second one mid-iteration: still <= Npf
        # concurrent-or-sequential failures, still masked (§4.4: no
        # assumptions on the failure inter-arrival time).
        scenario = FailureScenario(
            [
                ProcessorFailure("P1", 0.0),
                ProcessorFailure("P2", makespan / 2),
            ]
        )
        trace = simulate(result.schedule, algorithm, scenario)
        assert trace.all_operations_delivered(algorithm)

    def test_three_staggered_failures_with_npf2_can_break(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=2)
        result = schedule_ftbar(problem)
        algorithm = result.expanded_algorithm
        scenario = FailureScenario(
            [
                ProcessorFailure("P1", 0.0),
                ProcessorFailure("P2", 0.1),
                ProcessorFailure("P3", 0.2),
            ]
        )
        trace = simulate(result.schedule, algorithm, scenario)
        assert not trace.all_operations_delivered(algorithm)


class TestMakespanCorners:
    def test_crash_of_idle_processor_is_free(self):
        # With npf=0 on 3 processors the schedule may leave one
        # processor empty; crashing it changes nothing.
        problem = uniform_problem(linear_chain(2), processors=3, npf=0)
        result = schedule_ftbar(problem)
        used = {e.processor for e in result.schedule.all_operations()}
        idle = set(result.schedule.processor_names()) - used
        if idle:
            trace = simulate(
                result.schedule,
                result.expanded_algorithm,
                FailureScenario.crash(idle.pop()),
            )
            assert trace.makespan() == pytest.approx(result.makespan)

    def test_simulation_is_repeatable(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=1)
        result = schedule_ftbar(problem)
        scenario = FailureScenario.crash("P1", at=1.0)
        first = simulate(result.schedule, result.expanded_algorithm, scenario)
        second = simulate(result.schedule, result.expanded_algorithm, scenario)
        assert first.makespan() == second.makespan()
        assert [o.status for o in first.operations] == [
            o.status for o in second.operations
        ]
