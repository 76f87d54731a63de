"""Tests for the discrete-event schedule replay (the runtime of §5)."""

import pytest

from repro.core.ftbar import schedule_ftbar
from repro.graphs.algorithm import from_dependencies
from repro.graphs.builder import diamond, linear_chain
from repro.simulation.compiled import simulate
from repro.simulation.failures import (
    DetectionPolicy,
    FailureScenario,
    ProcessorFailure,
)
from repro.simulation.trace import EventStatus

from tests.simulation_oracle import ScheduleSimulator
from tests.util import uniform_problem


def scheduled(problem):
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


class TestNominalExecution:
    def test_reproduces_static_times(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        schedule, algorithm = scheduled(problem)
        trace = simulate(schedule, algorithm)
        for event in schedule.all_operations():
            outcome = trace.operation_outcome(event.operation, event.replica)
            assert outcome.status is EventStatus.COMPLETED
            assert outcome.start == pytest.approx(event.start)
            assert outcome.end == pytest.approx(event.end)

    def test_nominal_comms_all_complete(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        schedule, algorithm = scheduled(problem)
        trace = simulate(schedule, algorithm)
        assert len(trace.completed_comms()) == schedule.comm_count()

    def test_makespan_matches_static(self):
        problem = uniform_problem(linear_chain(4), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        assert simulate(schedule, algorithm).makespan() == pytest.approx(
            schedule.makespan()
        )

    def test_missing_operation_in_schedule_rejected(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        schedule, _ = scheduled(problem)
        bigger = from_dependencies([("A", "B"), ("A", "Z")])
        with pytest.raises(Exception, match="not in the"):
            ScheduleSimulator(schedule, bigger)


class TestSingleCrash:
    def test_any_single_crash_is_masked(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=0.5)
        schedule, algorithm = scheduled(problem)
        for processor in ("P1", "P2", "P3"):
            trace = simulate(schedule, algorithm, FailureScenario.crash(processor))
            assert trace.outputs_completion(algorithm) is not None
            assert trace.all_operations_delivered(algorithm)

    def test_operations_on_dead_processor_are_lost(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        trace = simulate(schedule, algorithm, FailureScenario.crash("P1"))
        for event in schedule.operations_on("P1"):
            outcome = trace.operation_outcome(event.operation, event.replica)
            assert outcome.status is EventStatus.LOST

    def test_comms_from_dead_processor_skipped(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        schedule, algorithm = scheduled(problem)
        trace = simulate(schedule, algorithm, FailureScenario.crash("P1"))
        for comm in trace.comms:
            if comm.source_processor == "P1":
                assert comm.status in (EventStatus.SKIPPED, EventStatus.LOST)

    def test_degraded_run_can_be_longer(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=2.0)
        schedule, algorithm = scheduled(problem)
        nominal = simulate(schedule, algorithm).makespan()
        lengths = [
            simulate(schedule, algorithm, FailureScenario.crash(p)).makespan()
            for p in ("P1", "P2", "P3")
        ]
        assert all(length >= 0 for length in lengths)
        # At least the runs complete; they may be longer or shorter than
        # nominal depending on which processor died.
        assert max(lengths) >= 0.0
        assert nominal > 0.0

    def test_late_crash_after_completion_changes_nothing(self):
        problem = uniform_problem(diamond(), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        nominal = simulate(schedule, algorithm).makespan()
        late = simulate(
            schedule, algorithm, FailureScenario.crash("P1", at=nominal + 1.0)
        )
        assert late.makespan() == pytest.approx(nominal)


class TestBeyondHypothesis:
    def test_npf_plus_one_crashes_can_starve(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        trace = simulate(schedule, algorithm, FailureScenario.crashes(["P1", "P2", "P3"]))
        assert trace.outputs_completion(algorithm) is None
        assert trace.makespan() == 0.0

    def test_starved_operations_reported(self):
        # Kill the two processors hosting T0's replicas after T0 would
        # have started but before sending: downstream replicas starve.
        problem = uniform_problem(linear_chain(2), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        hosts = {r.processor for r in schedule.replicas_of("T0")}
        trace = simulate(schedule, algorithm, FailureScenario.crashes(hosts))
        statuses = {o.status for o in trace.outcomes_of("T1")}
        assert EventStatus.STARVED in statuses or EventStatus.LOST in statuses
        assert trace.first_completion("T1") is None


class TestIntermittentFailures:
    def test_processor_resumes_after_recovery(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        # Fail one host of T0 briefly; without detection the processor
        # resumes its static sequence and the run still completes.
        host = schedule.replicas_of("T0")[0].processor
        trace = simulate(
            schedule,
            algorithm,
            FailureScenario.intermittent(host, 0.0, 0.4),
        )
        assert trace.outputs_completion(algorithm) is not None

    def test_operation_delayed_by_down_window(self):
        problem = uniform_problem(linear_chain(2), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        host = schedule.replicas_of("T0")[0].processor
        trace = simulate(
            schedule, algorithm, FailureScenario.intermittent(host, 0.0, 5.0)
        )
        outcome = next(
            o for o in trace.outcomes_of("T0")
            if o.processor == host
        )
        assert outcome.status is EventStatus.COMPLETED
        assert outcome.start >= 5.0

    def test_makespan_still_counts_delayed_events(self):
        problem = uniform_problem(linear_chain(2), processors=3, npf=1)
        schedule, algorithm = scheduled(problem)
        host = schedule.replicas_of("T0")[0].processor
        nominal = simulate(schedule, algorithm).makespan()
        delayed = simulate(
            schedule, algorithm, FailureScenario.intermittent(host, 0.0, 50.0)
        ).makespan()
        assert delayed >= nominal
