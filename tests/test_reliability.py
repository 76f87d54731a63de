"""Tests for the reliability analysis (exhaustive certificates)."""

import math

import pytest

from repro.analysis.reliability import (
    event_boundary_times,
    fault_tolerance_certificate,
    mean_time_to_failure_iterations,
    schedule_reliability,
)
from repro.core.ftbar import schedule_ftbar
from repro.exceptions import SimulationError
from repro.graphs.builder import diamond, linear_chain

from tests.util import uniform_problem


def ft_result(npf: int = 1, processors: int = 3):
    problem = uniform_problem(diamond(), processors=processors, npf=npf)
    return schedule_ftbar(problem)


class TestCertificate:
    def test_npf1_schedule_is_certified(self):
        result = ft_result(npf=1)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        assert certificate.certified
        assert certificate.breaking_subsets == []

    def test_levels_cover_zero_to_npf_plus_one(self):
        result = ft_result(npf=1)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        assert [level.failures for level in certificate.levels] == [0, 1, 2]
        assert certificate.level(0).fully_masked
        assert certificate.level(1).fully_masked

    def test_all_crashes_break_everything(self):
        # Crashing all three processors is never masked.
        result = ft_result(npf=1)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, max_failures=3
        )
        assert certificate.level(3).masked_subsets == 0

    def test_npf0_schedule_not_certified_for_one_crash(self):
        result = ft_result(npf=0)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, max_failures=1
        )
        # Some single crash must break an unreplicated schedule.
        assert not certificate.level(1).fully_masked
        # ...but npf=0 only promises the crash-free level, so the
        # certificate itself holds.
        assert certificate.certified

    def test_multiple_crash_times(self):
        result = ft_result(npf=1)
        times = event_boundary_times(result.schedule, limit=8)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, crash_times=times
        )
        assert certificate.certified

    def test_str_rendering(self):
        result = ft_result(npf=1)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        text = str(certificate)
        assert "CERTIFIED" in text
        assert "1 crash(es)" in text


class TestOutOfRangeArguments:
    """No vacuous verdict from an out-of-range bound, no mislabelled
    interval from an out-of-range sampling parameter."""

    @pytest.mark.parametrize("knob", ["max_failures", "max_link_failures"])
    def test_negative_bound_rejected(self, knob):
        result = ft_result(npf=1)
        with pytest.raises(SimulationError, match=f"{knob} must be >= 0"):
            fault_tolerance_certificate(
                result.schedule, result.expanded_algorithm, **{knob: -1}
            )

    def test_bound_below_npf_weakens_the_reported_hypothesis(self):
        result = ft_result(npf=1)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, max_failures=0
        )
        assert certificate.npf == 0
        assert [level.failures for level in certificate.levels] == [0]
        assert "npf=0" in str(certificate)
        assert "npf=1" not in str(certificate)

    @pytest.mark.parametrize(
        "knobs,message",
        [
            ({"confidence": 1.5}, "confidence must be in"),
            ({"confidence": 0.0}, "confidence must be in"),
            ({"budget": 0}, "budget must be >= 1"),
            ({"budget": -5}, "budget must be >= 1"),
        ],
    )
    def test_sampling_parameters_validated(self, knobs, message):
        result = ft_result(npf=1)
        schedule, algorithm = result.schedule, result.expanded_algorithm
        with pytest.raises(SimulationError, match=message):
            fault_tolerance_certificate(schedule, algorithm, **knobs)
        with pytest.raises(SimulationError, match=message):
            schedule_reliability(
                schedule, algorithm,
                {p: 0.01 for p in schedule.processor_names()}, **knobs,
            )


class TestEventBoundaryTimes:
    def test_includes_zero_and_is_sorted(self):
        result = ft_result(npf=1)
        times = event_boundary_times(result.schedule)
        assert times[0] == 0.0
        assert list(times) == sorted(times)

    def test_limit_respected(self):
        result = ft_result(npf=1)
        assert len(event_boundary_times(result.schedule, limit=4)) <= 4


class TestReliability:
    def test_perfect_processors_give_reliability_one(self):
        result = ft_result(npf=1)
        report = schedule_reliability(
            result.schedule,
            result.expanded_algorithm,
            {p: 0.0 for p in result.schedule.processor_names()},
        )
        assert report.reliability == pytest.approx(1.0)

    def test_reliability_at_least_guaranteed_bound(self):
        result = ft_result(npf=1)
        report = schedule_reliability(
            result.schedule,
            result.expanded_algorithm,
            {p: 0.1 for p in result.schedule.processor_names()},
        )
        assert report.reliability >= report.guaranteed_lower_bound - 1e-12
        # npf=1 on 3 processors with q=0.1:
        # P(<=1 failure) = 0.9^3 + 3*0.1*0.9^2 = 0.972
        assert report.guaranteed_lower_bound == pytest.approx(0.972)

    def test_replication_beats_no_replication(self):
        probabilities = {"P1": 0.1, "P2": 0.1, "P3": 0.1}
        replicated = ft_result(npf=1)
        plain = ft_result(npf=0)
        reliable = schedule_reliability(
            replicated.schedule, replicated.expanded_algorithm, probabilities
        )
        fragile = schedule_reliability(
            plain.schedule, plain.expanded_algorithm, probabilities
        )
        assert reliable.reliability > fragile.reliability

    def test_missing_probability_rejected(self):
        result = ft_result(npf=1)
        with pytest.raises(SimulationError, match="no failure probability"):
            schedule_reliability(
                result.schedule, result.expanded_algorithm, {"P1": 0.1}
            )

    def test_invalid_probability_rejected(self):
        result = ft_result(npf=1)
        with pytest.raises(SimulationError, match="must be in"):
            schedule_reliability(
                result.schedule,
                result.expanded_algorithm,
                {p: 1.5 for p in result.schedule.processor_names()},
            )

    def test_subset_count(self):
        result = ft_result(npf=1)
        report = schedule_reliability(
            result.schedule,
            result.expanded_algorithm,
            {p: 0.01 for p in result.schedule.processor_names()},
        )
        assert report.evaluated_subsets == 8  # 2^3


class TestMttf:
    def test_geometric_formula(self):
        assert mean_time_to_failure_iterations(0.9) == pytest.approx(10.0)
        assert math.isinf(mean_time_to_failure_iterations(1.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mean_time_to_failure_iterations(1.5)


class TestChainWorkload:
    def test_certificate_on_chain_with_npf2(self):
        problem = uniform_problem(linear_chain(3), processors=4, npf=2)
        result = schedule_ftbar(problem)
        certificate = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm
        )
        assert certificate.certified
        assert certificate.level(2).fully_masked
