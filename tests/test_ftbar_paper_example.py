"""End-to-end checks of FTBAR on the paper's worked example (E1).

The paper's own run gives a fault-tolerant length of 15.05 (< Rtc = 16)
and degraded lengths 15.35 / 15.05 / 12.6 for crashes of P1 / P2 / P3.
Our implementation reproduces 15.05 exactly; the degraded lengths match
for P1 and P2 and stay under Rtc for P3 (tie-breaking differences place
some replicas differently — see EXPERIMENTS.md).
"""

import pytest

from repro.analysis.metrics import degraded_lengths
from repro.baselines.list_scheduler import (
    schedule_basic,
    schedule_non_fault_tolerant,
)
from repro.schedule.validation import validate_schedule
from repro.simulation.compiled import simulate
from repro.simulation.failures import FailureScenario
from repro.workloads.paper_example import PAPER_RTC


class TestStaticSchedule:
    def test_ft_length_matches_paper(self, paper_result):
        assert paper_result.makespan == pytest.approx(15.05)

    def test_rtc_satisfied(self, paper_result):
        assert paper_result.rtc_satisfied
        assert paper_result.makespan < PAPER_RTC

    def test_every_operation_replicated_twice(self, paper_result):
        for operation in "IABCDEFGO":
            replicas = paper_result.schedule.replicas_of(operation)
            assert len(replicas) >= 2, operation
            assert len({r.processor for r in replicas}) == len(replicas)

    def test_distribution_constraints_respected(self, paper_result):
        # I cannot run on P3 and O cannot run on P2 (Table 1's infinities).
        assert paper_result.schedule.replica_on("I", "P3") is None
        assert paper_result.schedule.replica_on("O", "P2") is None

    def test_schedule_validates(self, paper_problem, paper_result):
        report = validate_schedule(
            paper_result.schedule,
            paper_result.expanded_algorithm,
            paper_problem.architecture,
            paper_problem.exec_times,
            paper_problem.comm_times,
            require_direct_links=True,
        )
        assert report.ok, str(report)

    def test_example_uses_lip_duplication(self, paper_result):
        # Figure 6's step: A gets a third, duplicated replica.
        assert paper_result.schedule.duplicated_count() >= 1

    def test_statistics_consistent(self, paper_result):
        assert paper_result.stats.steps == 9  # nine operations
        assert paper_result.stats.duplication.kept >= 1


class TestBaselines:
    def test_basic_heuristic_close_to_paper(self, paper_problem):
        # Paper: 10.7 with SynDEx's heuristic.  Tie-breaking differences
        # land us within ten percent.
        basic = schedule_basic(paper_problem)
        assert basic.makespan == pytest.approx(10.7, rel=0.10)

    def test_non_ft_is_shorter_than_ft(self, paper_problem, paper_result):
        non_ft = schedule_non_fault_tolerant(paper_problem)
        assert non_ft.makespan < paper_result.makespan

    def test_overhead_close_to_paper(self, paper_problem, paper_result):
        basic = schedule_basic(paper_problem)
        overhead = paper_result.makespan - basic.makespan
        assert overhead == pytest.approx(4.35, abs=1.0)


class TestFailureBehaviour:
    def test_every_single_crash_is_masked(self, paper_result):
        algorithm = paper_result.expanded_algorithm
        for processor in ("P1", "P2", "P3"):
            trace = simulate(
                paper_result.schedule, algorithm, FailureScenario.crash(processor)
            )
            assert trace.outputs_completion(algorithm) is not None, processor

    def test_degraded_lengths_match_paper_for_p1_p2(self, paper_result):
        lengths = degraded_lengths(
            paper_result.schedule, paper_result.expanded_algorithm
        )
        assert lengths["P1"] == pytest.approx(15.35)
        assert lengths["P2"] == pytest.approx(15.05)

    def test_all_degraded_lengths_satisfy_rtc(self, paper_result):
        lengths = degraded_lengths(
            paper_result.schedule, paper_result.expanded_algorithm
        )
        for processor, length in lengths.items():
            assert length < PAPER_RTC, (processor, length)

    def test_nominal_simulation_reproduces_static_times(self, paper_result):
        trace = simulate(paper_result.schedule, paper_result.expanded_algorithm)
        assert trace.makespan() == pytest.approx(paper_result.makespan)
        for event in paper_result.schedule.all_operations():
            outcome = trace.operation_outcome(event.operation, event.replica)
            assert outcome.start == pytest.approx(event.start)
            assert outcome.end == pytest.approx(event.end)

    def test_two_crashes_exceed_hypothesis(self, paper_result):
        # Npf = 1: two simultaneous crashes may starve operations.  The
        # simulator must degrade gracefully, not crash.
        algorithm = paper_result.expanded_algorithm
        trace = simulate(
            paper_result.schedule,
            algorithm,
            FailureScenario.crashes(["P1", "P2"]),
        )
        assert trace.outputs_completion(algorithm) is None
