"""Tests for the cyclic (multi-iteration) execution model."""

import pytest

from repro.core.ftbar import schedule_ftbar
from repro.exceptions import SimulationError
from repro.graphs.builder import diamond, linear_chain
from repro.simulation.failures import (
    DetectionPolicy,
    FailureScenario,
    ProcessorFailure,
)
from repro.simulation.iterative import (
    IterativeSimulator,
    simulate_iterations,
)
from repro.simulation.trace import EventStatus

from tests.util import uniform_problem


def scheduled(npf: int = 1, processors: int = 3, comm_time: float = 0.5):
    problem = uniform_problem(
        diamond(), processors=processors, npf=npf, comm_time=comm_time
    )
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


class TestNominalIterations:
    def test_every_iteration_identical(self):
        schedule, algorithm = scheduled()
        run = simulate_iterations(schedule, algorithm, iterations=4)
        assert len(run) == 4
        assert run.delivered_count() == 4
        makespans = {i.trace.makespan() for i in run.iterations}
        assert len(makespans) == 1

    def test_offsets_follow_the_period(self):
        schedule, algorithm = scheduled()
        run = simulate_iterations(schedule, algorithm, iterations=3)
        period = schedule.makespan()
        assert [i.offset for i in run.iterations] == [
            pytest.approx(k * period) for k in range(3)
        ]

    def test_custom_period_spaces_iterations(self):
        schedule, algorithm = scheduled()
        period = schedule.makespan() + 5.0
        run = simulate_iterations(
            schedule, algorithm, iterations=3, period=period
        )
        assert run.iterations[1].offset == pytest.approx(period)
        assert run.overruns() == ()

    def test_total_time(self):
        schedule, algorithm = scheduled()
        run = simulate_iterations(schedule, algorithm, iterations=3)
        assert run.total_time() == pytest.approx(3 * schedule.makespan())

    def test_zero_iterations(self):
        schedule, algorithm = scheduled()
        run = simulate_iterations(schedule, algorithm, iterations=0)
        assert len(run) == 0
        assert run.total_time() == 0.0

    def test_negative_iterations_rejected(self):
        schedule, algorithm = scheduled()
        with pytest.raises(SimulationError):
            simulate_iterations(schedule, algorithm, iterations=-1)

    def test_invalid_period_rejected(self):
        schedule, algorithm = scheduled()
        with pytest.raises(SimulationError):
            IterativeSimulator(schedule, algorithm, period=0.0)


class TestCrashesAcrossIterations:
    def test_crash_mid_run_degrades_later_iterations_only(self):
        schedule, algorithm = scheduled(comm_time=2.0)
        period = schedule.makespan()
        # Crash P1 during iteration 2 (absolute time 1.5 periods).
        run = simulate_iterations(
            schedule,
            algorithm,
            iterations=4,
            scenario=FailureScenario.crash("P1", at=1.5 * period),
        )
        assert run.delivered_count() == 4  # npf=1 masks the crash
        first = run.iterations[0].trace
        last = run.iterations[3].trace
        assert all(
            o.status is EventStatus.COMPLETED for o in first.operations
        )
        assert any(o.status is not EventStatus.COMPLETED for o in last.operations)

    def test_intermittent_processor_recovers_in_a_later_iteration(self):
        schedule, algorithm = scheduled()
        period = schedule.makespan()
        # P1 is down for the whole of iteration 1 but healthy afterwards
        # (option 1: no detection, so it resumes producing results).
        run = simulate_iterations(
            schedule,
            algorithm,
            iterations=3,
            scenario=FailureScenario.intermittent("P1", 0.0, 1.2 * period),
        )
        assert run.delivered_count() == 3
        final = run.iterations[2].trace
        assert all(
            o.status is EventStatus.COMPLETED for o in final.operations
        )

    def test_overrun_delays_the_next_iteration(self):
        schedule, algorithm = scheduled(comm_time=2.0)
        period = schedule.makespan()
        run = simulate_iterations(
            schedule,
            algorithm,
            iterations=2,
            scenario=FailureScenario.crash("P1", at=0.0),
        )
        if run.iterations[0].trace.makespan() > period:
            assert run.iterations[1].offset > period
            assert run.overruns()


class TestDetectionAcrossIterations:
    def crash_run(self, detection):
        schedule, algorithm = scheduled(comm_time=2.0)
        return (
            schedule,
            simulate_iterations(
                schedule,
                algorithm,
                iterations=3,
                scenario=FailureScenario.crash("P1", at=0.0),
                detection=detection,
            ),
        )

    def test_knowledge_persists_into_subsequent_iterations(self):
        schedule, run = self.crash_run(DetectionPolicy.TIMEOUT_ARRAY)
        later = run.iterations[2].trace
        # Option 2: comms toward the dead processor are suppressed in
        # later iterations (knowledge carried over, effective at t=0).
        toward_dead = [
            c for c in later.comms if c.target_processor == "P1"
        ]
        for comm in toward_dead:
            assert comm.status is EventStatus.SKIPPED, comm

    def test_option1_keeps_sending_forever(self):
        schedule, run = self.crash_run(DetectionPolicy.NONE)
        later = run.iterations[2].trace
        sent_toward_dead = [
            c
            for c in later.comms
            if c.target_processor == "P1"
            and c.source_processor != "P1"
            and c.status is EventStatus.COMPLETED
        ]
        statically_toward_dead = [
            c
            for c in schedule.all_comms()
            if c.target_processor == "P1" and c.source_processor != "P1"
        ]
        if statically_toward_dead:
            assert sent_toward_dead

    def test_all_iterations_still_delivered_with_detection(self):
        _, run = self.crash_run(DetectionPolicy.TIMEOUT_ARRAY)
        assert run.delivered_count() == 3

    def test_summary_mentions_counts(self):
        _, run = self.crash_run(DetectionPolicy.NONE)
        assert "3 iterations" in run.summary()
        assert "3 delivered" in run.summary()


class TestIntermittentWithDetection:
    """Section 5's drawback of option 2, verified.

    "When a processor is detected to be faulty, the other healthy
    processors will update their array of faulty processors, and will
    not send any more data during the subsequent iterations.  So even
    if this faulty processor comes back to life, it will not receive
    any inputs and will not be able to perform any computation."
    """

    def run_intermittent(self, detection):
        # A topology engineered so that BOTH healthy processors expect
        # comms from P3 (and therefore detect its failure), while P3
        # hosts replicas fed only by remote comms (and therefore starves
        # once everyone excludes it):
        #   X on {P1,P2};  Y on {P2,P3};  Y2 on {P1,P3};
        #   W on {P1,P2} (W/0 on P1 receives Y/1 from P3);
        #   W2 on {P2,P3} (W2/0 on P2 receives Y2/1 from P3).
        from repro.graphs.algorithm import from_dependencies

        graph = from_dependencies(
            [("X", "Y"), ("X", "Y2"), ("Y", "W"), ("Y2", "W2")]
        )
        problem = uniform_problem(graph, processors=3, npf=1, comm_time=0.3)
        allowed = {
            "X": ("P1", "P2"),
            "Y": ("P2", "P3"),
            "Y2": ("P1", "P3"),
            "W": ("P1", "P2"),
            "W2": ("P2", "P3"),
        }
        for operation, hosts in allowed.items():
            for processor in ("P1", "P2", "P3"):
                if processor not in hosts:
                    problem.exec_times.forbid(operation, processor)
        result = schedule_ftbar(problem)
        schedule, algorithm = result.schedule, result.expanded_algorithm
        period = schedule.makespan()
        victim = "P3"
        scenario = FailureScenario.intermittent(victim, 0.0, 1.1 * period)
        run = simulate_iterations(
            schedule, algorithm, iterations=3,
            scenario=scenario, detection=detection,
        )
        return schedule, victim, run

    def test_option2_recovered_processor_stays_excluded(self):
        schedule, victim, run = self.run_intermittent(
            DetectionPolicy.TIMEOUT_ARRAY
        )
        final = run.iterations[2].trace
        # The processor is healthy again, but every comm toward it is
        # suppressed by the persistent faulty arrays...
        toward = [c for c in final.comms if c.target_processor == victim]
        assert toward, "schedule sends nothing toward the victim"
        assert all(c.status is EventStatus.SKIPPED for c in toward)
        # ...so its comm-fed replicas starve even though it is alive.
        starved_on_victim = [
            o for o in final.operations
            if o.processor == victim and o.status is EventStatus.STARVED
        ]
        assert starved_on_victim

    def test_option1_recovered_processor_computes_again(self):
        _, victim, run = self.run_intermittent(DetectionPolicy.NONE)
        final = run.iterations[2].trace
        on_victim = [o for o in final.operations if o.processor == victim]
        assert all(o.status is EventStatus.COMPLETED for o in on_victim)

    def test_outputs_survive_either_way(self):
        for detection in (DetectionPolicy.NONE, DetectionPolicy.TIMEOUT_ARRAY):
            _, _, run = self.run_intermittent(detection)
            assert run.delivered_count() == 3, detection


class TestBeyondHypothesisIterative:
    def test_lost_outputs_reported_per_iteration(self):
        problem = uniform_problem(linear_chain(3), processors=3, npf=1)
        result = schedule_ftbar(problem)
        period = result.makespan
        run = simulate_iterations(
            result.schedule,
            result.expanded_algorithm,
            iterations=3,
            scenario=FailureScenario(
                [
                    ProcessorFailure("P1", 1.2 * period),
                    ProcessorFailure("P2", 1.2 * period),
                ]
            ),
        )
        assert run.iterations[0].delivered
        assert not run.iterations[2].delivered
        assert len(run.missed()) >= 1
