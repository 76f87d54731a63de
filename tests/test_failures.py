"""Tests for the fail-silent failure scenario model."""

import math

import pytest

from repro.exceptions import SimulationError
from repro.simulation.failures import (
    FailureScenario,
    LinkFailure,
    ProcessorFailure,
)


class TestProcessorFailure:
    def test_permanent_by_default(self):
        failure = ProcessorFailure("P1", 2.0)
        assert failure.permanent
        assert failure.covers(5.0)
        assert not failure.covers(1.0)

    def test_intermittent(self):
        failure = ProcessorFailure("P1", 2.0, 4.0)
        assert not failure.permanent
        assert failure.covers(3.0)
        assert not failure.covers(4.0)  # half-open interval

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            ProcessorFailure("P1", -1.0)

    def test_recovery_before_failure_rejected(self):
        with pytest.raises(SimulationError):
            ProcessorFailure("P1", 5.0, 3.0)

    @pytest.mark.parametrize(
        "at, until", [(math.nan, math.inf), (1.0, math.nan), (math.nan, 2.0)]
    )
    @pytest.mark.parametrize("kind", [ProcessorFailure, LinkFailure])
    def test_nan_instant_rejected(self, kind, at, until):
        # ``at < 0`` and ``until <= at`` are both False for NaN, so a NaN
        # failure once slipped through and never silenced anything.
        with pytest.raises(SimulationError, match="NaN"):
            kind("P1", at, until)

    def test_overlaps(self):
        failure = ProcessorFailure("P1", 2.0, 4.0)
        assert failure.overlaps(3.0, 5.0)
        assert failure.overlaps(0.0, 2.5)
        assert not failure.overlaps(4.0, 6.0)
        assert not failure.overlaps(0.0, 2.0)


class TestFailureScenario:
    def test_none_scenario(self):
        scenario = FailureScenario.none()
        assert scenario.is_up("P1", 1e9)
        assert scenario.failed_processors() == ()
        assert len(scenario) == 0

    def test_crash_constructor(self):
        scenario = FailureScenario.crash("P1", at=3.0)
        assert scenario.is_up("P1", 2.9)
        assert not scenario.is_up("P1", 3.0)
        assert scenario.failure_count() == 1

    def test_crashes_constructor(self):
        scenario = FailureScenario.crashes(["P1", "P2"])
        assert scenario.failed_processors() == ("P1", "P2")
        assert not scenario.is_up("P1", 0.0)
        assert not scenario.is_up("P2", 0.0)

    def test_intermittent_constructor(self):
        scenario = FailureScenario.intermittent("P1", 2.0, 4.0)
        assert scenario.is_up("P1", 1.0)
        assert not scenario.is_up("P1", 3.0)
        assert scenario.is_up("P1", 4.0)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(SimulationError, match="overlapping"):
            FailureScenario(
                [
                    ProcessorFailure("P1", 1.0, 5.0),
                    ProcessorFailure("P1", 3.0, 7.0),
                ]
            )

    def test_up_during(self):
        scenario = FailureScenario.intermittent("P1", 2.0, 4.0)
        assert scenario.up_during("P1", 0.0, 2.0)
        assert not scenario.up_during("P1", 1.0, 3.0)
        assert scenario.up_during("P1", 4.0, 9.0)
        assert scenario.up_during("P2", 0.0, 100.0)

    def test_resume_time(self):
        scenario = FailureScenario.intermittent("P1", 2.0, 4.0)
        assert scenario.resume_time("P1", 1.0) == 1.0  # already up
        assert scenario.resume_time("P1", 3.0) == 4.0
        assert math.isinf(FailureScenario.crash("P1").resume_time("P1", 1.0))

    def test_next_crash_after(self):
        scenario = FailureScenario.intermittent("P1", 2.0, 4.0)
        assert scenario.next_crash_after("P1", 0.0) == 2.0
        assert scenario.next_crash_after("P1", 3.0) == 2.0  # covering interval
        assert math.isinf(scenario.next_crash_after("P1", 5.0))

    def test_next_window_simple(self):
        scenario = FailureScenario.intermittent("P1", 2.0, 4.0)
        assert scenario.next_window("P1", 0.0, 1.0) == 0.0
        # [1.5, 2.5) would overlap the failure: pushed to recovery.
        assert scenario.next_window("P1", 1.5, 1.0) == 4.0

    def test_next_window_permanent(self):
        scenario = FailureScenario.crash("P1", at=5.0)
        assert scenario.next_window("P1", 0.0, 1.0) == 0.0
        assert scenario.next_window("P1", 4.5, 1.0) is None
        assert scenario.next_window("P1", 9.0, 1.0) is None

    def test_next_window_skips_several_intervals(self):
        scenario = FailureScenario(
            [
                ProcessorFailure("P1", 1.0, 2.0),
                ProcessorFailure("P1", 2.5, 3.5),
            ]
        )
        # Needs 1.0 contiguous units: [0,1) fits.
        assert scenario.next_window("P1", 0.0, 1.0) == 0.0
        # Starting from 0.5 the windows [0.5,1.5) and [2,3) are blocked;
        # first fit is [3.5, 4.5).
        assert scenario.next_window("P1", 0.5, 1.0) == 3.5

    def test_iteration_sorted(self):
        scenario = FailureScenario(
            [ProcessorFailure("P2", 1.0), ProcessorFailure("P1", 0.0)]
        )
        assert [f.processor for f in scenario] == ["P1", "P2"]
