"""Tests for the §6.2 evaluation metrics."""

import pytest

from repro.analysis.metrics import (
    degraded_lengths,
    overhead_percent,
    presence_overheads,
    replication_profile,
    worst_degraded_length,
)
from repro.core.ftbar import schedule_ftbar
from repro.exceptions import SimulationError
from repro.graphs.builder import diamond
from repro.simulation.compiled import CompiledSchedule
from repro.simulation.failures import DetectionPolicy, FailureScenario
from repro.workloads.paper_example import build_problem as paper_example_problem

from tests.util import uniform_problem


class TestOverheadFormula:
    def test_paper_formula(self):
        # (15.05 - 10.7) / 15.05 * 100
        assert overhead_percent(15.05, 10.7) == pytest.approx(28.9036544)

    def test_zero_when_equal(self):
        assert overhead_percent(10.0, 10.0) == 0.0

    def test_negative_when_ft_is_shorter(self):
        assert overhead_percent(8.0, 10.0) < 0.0

    def test_invalid_ft_length(self):
        with pytest.raises(ValueError):
            overhead_percent(0.0, 1.0)


class TestReplicationProfile:
    def test_counts(self, paper_result):
        profile = replication_profile(paper_result.schedule)
        assert profile.operations == 9
        assert profile.replicas >= 18
        assert profile.duplicated >= 1
        assert profile.comms == paper_result.schedule.comm_count()
        assert profile.average_replication >= 2.0

    def test_empty_profile(self):
        from repro.schedule.schedule import Schedule

        profile = replication_profile(Schedule(processors=["P1"]))
        assert profile.average_replication == 0.0


class TestLoadProfile:
    def test_busy_times(self, paper_result):
        from repro.analysis.metrics import load_profile

        profile = load_profile(paper_result.schedule)
        assert set(profile.processor_busy) == {"P1", "P2", "P3"}
        assert set(profile.link_busy) == {"L1.2", "L1.3", "L2.3"}
        assert profile.makespan == pytest.approx(15.05)
        for processor in ("P1", "P2", "P3"):
            assert 0.0 < profile.processor_utilization(processor) <= 1.0

    def test_balance_bounds(self, paper_result):
        from repro.analysis.metrics import load_profile

        profile = load_profile(paper_result.schedule)
        assert 0.0 < profile.balance <= 1.0

    def test_empty_schedule_profile(self):
        from repro.analysis.metrics import load_profile
        from repro.schedule.schedule import Schedule

        profile = load_profile(Schedule(processors=["P1"], links=["L"]))
        assert profile.balance == 1.0
        assert profile.processor_utilization("P1") == 0.0
        assert profile.link_utilization("L") == 0.0


class TestOutputLatencies:
    def test_paper_example_latencies(self, paper_result):
        from repro.analysis.metrics import output_latencies

        latencies = output_latencies(
            paper_result.schedule, paper_result.expanded_algorithm
        )
        assert set(latencies) == {"O"}
        entry = latencies["O"]
        # Nominally O's first replica completes before the full schedule
        # ends (straggler replicas keep running).
        assert entry.nominal <= paper_result.makespan
        assert entry.worst_single_crash >= entry.nominal
        assert entry.degradation >= 0.0

    def test_worst_culprit_identified_when_degraded(self, paper_result):
        from repro.analysis.metrics import output_latencies

        latencies = output_latencies(
            paper_result.schedule, paper_result.expanded_algorithm
        )
        entry = latencies["O"]
        if entry.degradation > 0:
            assert entry.worst_crashed_processor in ("P1", "P2", "P3")
        else:
            assert entry.worst_crashed_processor is None

    def test_unmasked_crash_raises(self):
        from repro.analysis.metrics import output_latencies
        from repro.exceptions import SimulationError

        problem = uniform_problem(diamond(), processors=2, npf=0)
        result = schedule_ftbar(problem)
        with pytest.raises(SimulationError, match="loses output"):
            output_latencies(result.schedule, result.expanded_algorithm)


class TestDegradedLengths:
    def test_one_entry_per_processor(self, paper_result):
        lengths = degraded_lengths(
            paper_result.schedule, paper_result.expanded_algorithm
        )
        assert set(lengths) == {"P1", "P2", "P3"}
        assert all(length > 0 for length in lengths.values())

    def test_worst_degraded_length(self, paper_result):
        lengths = degraded_lengths(
            paper_result.schedule, paper_result.expanded_algorithm
        )
        assert worst_degraded_length(
            paper_result.schedule, paper_result.expanded_algorithm
        ) == max(lengths.values())

    def test_unmasked_crash_raises(self):
        problem = uniform_problem(diamond(), processors=2, npf=0)
        result = schedule_ftbar(problem)
        with pytest.raises(SimulationError, match="not masked"):
            degraded_lengths(result.schedule, result.expanded_algorithm)

    def test_presence_overheads(self, paper_result):
        overheads = presence_overheads(
            paper_result.schedule,
            paper_result.expanded_algorithm,
            non_ft_length=10.5,
        )
        assert set(overheads) == {"P1", "P2", "P3"}
        for value in overheads.values():
            assert 0.0 < value < 100.0


def _degraded_via_trace(schedule, algorithm, at, detection, require_delivery):
    """Figure 8 read off the object-level trace: the former path."""
    compiled = CompiledSchedule(schedule, algorithm)
    lengths = {}
    for processor in schedule.processor_names():
        trace = compiled.replay(
            FailureScenario.crash(processor, at), detection
        ).to_trace(compiled)
        if require_delivery and trace.outputs_completion(algorithm) is None:
            raise SimulationError(f"{processor} lost an output")
        lengths[processor] = trace.makespan()
    return lengths


def _figure8_corpus():
    from repro.campaign.jobs import build_problem as grid_problem
    from repro.campaign.spec import WorkloadSpec

    yield "paper", paper_example_problem()
    for index, (family, topology, npf) in enumerate([
        ("random", "fully_connected", 1),
        ("random", "ring", 1),
        ("gauss", "star", 1),
        ("butterfly", "single_bus", 2),
        ("random", "fully_connected", 0),
        ("random", "ring", 0),
    ]):
        workload = WorkloadSpec(family=family, size=12 if family == "random" else 3)
        yield (
            f"{family}-{topology}-npf{npf}",
            grid_problem(workload, topology, 4, npf, 2.0, 40 + index),
        )


class TestDegradedLengthsAgainstTraces:
    """The arrays give the very Figure-8 values the traces gave."""

    @pytest.mark.parametrize(
        "at, detection",
        [(0.0, DetectionPolicy.NONE), (7.5, DetectionPolicy.NONE),
         (0.0, DetectionPolicy.TIMEOUT_ARRAY)],
        ids=["t0", "t7.5", "timeout-array"],
    )
    def test_equal_to_the_trace_path(self, at, detection):
        checked = 0
        for label, problem in _figure8_corpus():
            result = schedule_ftbar(problem)
            schedule, algorithm = result.schedule, result.expanded_algorithm
            for require in (True, False):
                try:
                    expected = _degraded_via_trace(
                        schedule, algorithm, at, detection, require
                    )
                except SimulationError:
                    with pytest.raises(SimulationError, match="not masked"):
                        degraded_lengths(
                            schedule, algorithm, at, detection, require
                        )
                    continue
                assert degraded_lengths(
                    schedule, algorithm, at, detection, require
                ) == expected, label
                checked += 1
        assert checked >= 8

    def test_paper_example_values_pinned(self, paper_result):
        lengths = degraded_lengths(
            paper_result.schedule, paper_result.expanded_algorithm
        )
        assert {p: round(v, 2) for p, v in lengths.items()} == {
            "P1": 15.35, "P2": 15.05, "P3": 15.7,
        }


class TestInjectAgainstTraces:
    """Campaign failure injection reads the replay arrays, not a trace."""

    SCENARIOS = [((0,), 0.0), ((1,), 7.5), ((0, 1), 0.0), ((0, 1, 2), 2.0)]

    @staticmethod
    def via_trace(problem, ftbar, compiled, processors, at):
        """The former path: the object-level trace of each replay."""
        names = problem.architecture.processor_names()
        crashed = [names[i] for i in processors]
        trace = compiled.replay(
            FailureScenario.crashes(crashed, at)
        ).to_trace(compiled)
        completion = trace.outputs_completion(ftbar.expanded_algorithm)
        return {
            "processors": crashed, "at": at,
            "delivered": completion is not None,
            "makespan": trace.makespan(), "outputs_at": completion,
        }

    def test_equal_to_the_trace_path(self):
        from repro.campaign.jobs import _inject
        from repro.campaign.spec import FailureSpec

        lost = 0
        for label, problem in _figure8_corpus():
            ftbar = schedule_ftbar(problem)
            compiled = CompiledSchedule(ftbar.schedule, ftbar.expanded_algorithm)
            for processors, at in self.SCENARIOS:
                entry = _inject(
                    FailureSpec(processors=processors, at=at),
                    ftbar, problem, compiled,
                )
                assert entry == self.via_trace(
                    problem, ftbar, compiled, processors, at
                ), (label, processors, at)
                lost += not entry["delivered"]
        assert lost > 0  # undelivered outputs were compared too
