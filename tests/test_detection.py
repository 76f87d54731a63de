"""Tests for the two failure-detection options of section 5."""

import pytest

from repro.core.ftbar import schedule_ftbar
from repro.graphs.builder import diamond, linear_chain
from repro.simulation.compiled import simulate
from repro.simulation.failures import DetectionPolicy, FailureScenario
from repro.simulation.trace import EventStatus

from tests.util import uniform_problem


def scheduled(problem):
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


class TestOption1NoDetection:
    def test_comms_to_dead_processor_still_sent(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        schedule, algorithm = scheduled(problem)
        dead = "P1"
        trace = simulate(
            schedule, algorithm, FailureScenario.crash(dead), DetectionPolicy.NONE
        )
        toward_dead = [
            c for c in trace.comms
            if c.target_processor == dead and c.status is EventStatus.COMPLETED
        ]
        senders_alive = [
            c for c in schedule.all_comms() if c.target_processor == dead
            and c.source_processor != dead
        ]
        # Option 1: healthy senders keep transmitting toward the dead
        # processor (whenever such comms exist in the schedule).
        if senders_alive:
            assert toward_dead

    def test_no_detection_knowledge_recorded(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        schedule, algorithm = scheduled(problem)
        trace = simulate(
            schedule, algorithm, FailureScenario.crash("P1"), DetectionPolicy.NONE
        )
        assert trace.detections == {}


class TestOption2TimeoutArray:
    def make_crash_trace(self, comm_time=2.0):
        problem = uniform_problem(diamond(), processors=3, npf=1,
                                  comm_time=comm_time)
        schedule, algorithm = scheduled(problem)
        trace = simulate(
            schedule,
            algorithm,
            FailureScenario.crash("P1"),
            DetectionPolicy.TIMEOUT_ARRAY,
        )
        return schedule, trace

    def test_missed_comms_reveal_the_faulty_sender(self):
        schedule, trace = self.make_crash_trace()
        expected_receivers = {
            c.target_processor
            for c in schedule.all_comms()
            if c.source_processor == "P1"
        }
        for receiver in expected_receivers:
            assert "P1" in trace.detections.get(receiver, {}), trace.detections

    def test_detection_time_is_static_expected_end(self):
        schedule, trace = self.make_crash_trace()
        for receiver, known in trace.detections.items():
            for faulty, at in known.items():
                expected_ends = [
                    c.end
                    for c in schedule.all_comms()
                    if c.source_processor == faulty
                    and c.target_processor == receiver
                ]
                assert at in [pytest.approx(e) for e in expected_ends]

    def test_sends_toward_detected_processor_suppressed(self):
        schedule, trace = self.make_crash_trace()
        for comm in trace.comms:
            if comm.status is not EventStatus.COMPLETED:
                continue
            sender_knowledge = trace.detections.get(comm.source_processor, {})
            detected_at = sender_knowledge.get(comm.target_processor)
            if detected_at is not None:
                # Any comm actually sent toward P1 must have started
                # before its sender learned that P1 is dead.
                assert comm.start < detected_at + 1e-9

    def test_outputs_still_delivered_with_detection(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        trace = simulate(
            schedule,
            algorithm,
            FailureScenario.crash("P2"),
            DetectionPolicy.TIMEOUT_ARRAY,
        )
        assert trace.outputs_completion(algorithm) is not None

    def test_detection_makespan_never_longer_than_option1(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=3.0)
        schedule, algorithm = scheduled(problem)
        scenario = FailureScenario.crash("P1")
        without = simulate(schedule, algorithm, scenario, DetectionPolicy.NONE)
        with_detection = simulate(
            schedule, algorithm, scenario, DetectionPolicy.TIMEOUT_ARRAY
        )
        # Skipping useless sends can only relieve the links.
        assert with_detection.makespan() <= without.makespan() + 1e-9
