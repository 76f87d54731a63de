"""Unit tests for the schedule-pressure cost function (the oracle's)."""

import math

import pytest

from repro.graphs.algorithm import from_dependencies
from repro.hardware.topologies import fully_connected
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from tests.ftbar_oracle import (
    PlacementPlanner,
    PressureCalculator,
    ReferenceScheduler,
)


def setup_chain(npf: int = 0):
    """A -> B -> C with exec 1.0 everywhere and comm 0.5 on all links."""
    algorithm = from_dependencies([("A", "B"), ("B", "C")])
    architecture = fully_connected(3)
    exec_times = ExecutionTimes.uniform(
        ["A", "B", "C"], architecture.processor_names(), 1.0
    )
    comm_times = CommunicationTimes.uniform(
        [("A", "B"), ("B", "C")], architecture.link_names(), 0.5
    )
    planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, npf)
    calculator = PressureCalculator(
        algorithm, architecture, exec_times, comm_times, npf, planner
    )
    schedule = Schedule(
        processors=architecture.processor_names(),
        links=architecture.link_names(),
        npf=npf,
    )
    return calculator, schedule


class TestSbar:
    def test_sink_sbar_is_average_execution(self):
        calculator, _ = setup_chain()
        assert calculator.sbar("C") == pytest.approx(1.0)

    def test_sbar_accumulates_execution_and_communication(self):
        calculator, _ = setup_chain()
        # B: exec(1) + comm(0.5) + sbar(C)=1 -> 2.5
        assert calculator.sbar("B") == pytest.approx(2.5)
        # A: exec(1) + comm(0.5) + sbar(B)=2.5 -> 4.0
        assert calculator.sbar("A") == pytest.approx(4.0)

    def test_sbar_takes_longest_branch(self):
        algorithm = from_dependencies([("A", "B"), ("A", "C")])
        architecture = fully_connected(2)
        exec_times = ExecutionTimes.from_rows(
            ("P1", "P2"),
            {"A": (1.0, 1.0), "B": (9.0, 9.0), "C": (2.0, 2.0)},
        )
        comm_times = CommunicationTimes.uniform(
            [("A", "B"), ("A", "C")], architecture.link_names(), 1.0
        )
        planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, 0)
        calculator = PressureCalculator(
            algorithm, architecture, exec_times, comm_times, 0, planner
        )
        assert calculator.sbar("A") == pytest.approx(1.0 + 1.0 + 9.0)

    def test_sbar_uses_average_over_allowed_processors(self):
        algorithm = from_dependencies([("A", "B")])
        architecture = fully_connected(2)
        exec_times = ExecutionTimes.from_rows(
            ("P1", "P2"), {"A": (2.0, 4.0), "B": (1.0, math.inf)}
        )
        comm_times = CommunicationTimes.uniform(
            [("A", "B")], architecture.link_names(), 1.0
        )
        planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, 0)
        calculator = PressureCalculator(
            algorithm, architecture, exec_times, comm_times, 0, planner
        )
        # avg exec of A over P1,P2 = 3.0; B is allowed only on P1 -> 1.0
        assert calculator.sbar("B") == pytest.approx(1.0)
        assert calculator.sbar("A") == pytest.approx(3.0 + 1.0 + 1.0)

    def test_average_communication_zero_without_links(self):
        algorithm = from_dependencies([("A", "B")])
        architecture = fully_connected(1)
        exec_times = ExecutionTimes.uniform(["A", "B"], ("P1",), 1.0)
        planner = PlacementPlanner(
            algorithm, architecture, exec_times, CommunicationTimes(), 0
        )
        calculator = PressureCalculator(
            algorithm, architecture, exec_times, CommunicationTimes(), 0, planner
        )
        assert calculator.average_communication(("A", "B")) == 0.0
        assert calculator.sbar("A") == pytest.approx(2.0)


class TestPressure:
    def test_source_pressure_equals_sbar(self):
        calculator, schedule = setup_chain()
        # S_worst of a source on an idle processor is 0.
        assert calculator.pressure("A", "P1", schedule) == pytest.approx(
            calculator.sbar("A")
        )

    def test_pressure_infinite_when_forbidden(self):
        algorithm = from_dependencies([("A", "B")])
        architecture = fully_connected(2)
        exec_times = ExecutionTimes.from_rows(
            ("P1", "P2"), {"A": (1.0, math.inf), "B": (1.0, 1.0)}
        )
        comm_times = CommunicationTimes.uniform(
            [("A", "B")], architecture.link_names(), 1.0
        )
        planner = PlacementPlanner(algorithm, architecture, exec_times, comm_times, 0)
        calculator = PressureCalculator(
            algorithm, architecture, exec_times, comm_times, 0, planner
        )
        schedule = Schedule(
            processors=("P1", "P2"), links=architecture.link_names(), npf=0
        )
        assert math.isinf(calculator.pressure("A", "P2", schedule))

    def test_pressure_prefers_local_processor(self):
        calculator, schedule = setup_chain()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        local = calculator.pressure("B", "P1", schedule)
        remote = calculator.pressure("B", "P2", schedule)
        assert local < remote

    def test_evaluation_counter_increments(self):
        calculator, schedule = setup_chain()
        before = calculator.evaluations
        calculator.pressure("A", "P1", schedule)
        calculator.pressure("A", "P2", schedule)
        assert calculator.evaluations == before + 2

    def test_trial_evaluations_leave_schedule_unchanged(self):
        calculator, schedule = setup_chain()
        schedule.place_operation("A", "P1", 0.0, 1.0)
        calculator.pressure("B", "P2", schedule)
        calculator.pressure("B", "P3", schedule)
        assert schedule.comm_count() == 0

    def test_schedule_flexibility_definition(self):
        calculator, schedule = setup_chain()
        r_estimate = 10.0
        flexibility = calculator.schedule_flexibility("A", "P1", schedule, r_estimate)
        assert flexibility == pytest.approx(r_estimate - 0.0 - calculator.sbar("A"))

    def test_critical_path_estimate_covers_candidates(self):
        calculator, schedule = setup_chain()
        estimate = calculator.critical_path_estimate(["A"], schedule)
        assert estimate == pytest.approx(calculator.sbar("A"))


class TestCriticalPathEstimateRegression:
    """Pin ``R(n)`` on the paper example."""

    def build(self, paper_problem):
        pressure = ReferenceScheduler(paper_problem).pressure
        schedule = Schedule(
            processors=paper_problem.architecture.processor_names(),
            links=paper_problem.architecture.link_names(),
            npf=paper_problem.npf,
        )
        return pressure, schedule

    def test_initial_estimate_on_paper_example(self, paper_problem):
        # Seed-recorded value: R(0) with the single candidate 'I' on the
        # empty schedule is the best achievable S_worst + sbar = sbar(I).
        pressure, schedule = self.build(paper_problem)
        estimate = pressure.critical_path_estimate(["I"], schedule)
        assert estimate == pytest.approx(13.866666666666665)
        assert estimate == pytest.approx(pressure.sbar("I"))

    def test_final_estimate_equals_makespan(self, paper_problem, paper_result):
        # With no candidates left, R(n) is the finished makespan: 15.05
        # on the paper example (seed-recorded).
        pressure, _ = self.build(paper_problem)
        estimate = pressure.critical_path_estimate([], paper_result.schedule)
        assert estimate == pytest.approx(15.05)

