"""Tests for link failures — the paper's declared limitation (§7).

"Our solution can only tolerate processor failures.  We are currently
working on new solutions to take communication link failures ... into
account."  The simulator models broken media anyway, which lets these
tests demonstrate (a) that a single bus failure breaks an FTBAR
schedule built on a shared bus, and (b) that on fully connected
point-to-point architectures the replicated comms happen to take
link-disjoint paths, so single link failures are often masked
*incidentally* — without any guarantee.
"""

import math

import pytest

from repro.core.ftbar import schedule_ftbar
from repro.exceptions import SimulationError
from repro.graphs.builder import diamond, fork_join
from repro.hardware.topologies import single_bus
from repro.problem import ProblemSpec
from repro.simulation.compiled import simulate
from repro.simulation.failures import DetectionPolicy
from repro.simulation.failures import (
    FailureScenario,
    LinkFailure,
    ProcessorFailure,
)
from repro.simulation.trace import EventStatus
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes

from tests.util import uniform_problem


class TestLinkFailureModel:
    def test_link_down_constructor(self):
        scenario = FailureScenario.link_down("L1.2", at=3.0)
        assert scenario.failed_links() == ("L1.2",)
        assert scenario.link_is_up("L1.2", 2.9)
        assert not scenario.link_is_up("L1.2", 3.0)
        assert scenario.link_is_up("L9", 1e9)

    def test_mixed_scenario(self):
        scenario = FailureScenario(
            [ProcessorFailure("P1", 0.0), LinkFailure("L1.2", 5.0, 7.0)]
        )
        assert scenario.failed_processors() == ("P1",)
        assert scenario.failed_links() == ("L1.2",)
        assert len(scenario) == 2

    def test_link_up_during(self):
        scenario = FailureScenario([LinkFailure("L", 2.0, 4.0)])
        assert scenario.link_up_during("L", 0.0, 2.0)
        assert not scenario.link_up_during("L", 3.0, 5.0)

    def test_link_next_window(self):
        scenario = FailureScenario([LinkFailure("L", 2.0, 4.0)])
        assert scenario.link_next_window("L", 0.0, 1.0) == 0.0
        assert scenario.link_next_window("L", 1.5, 1.0) == 4.0
        permanent = FailureScenario.link_down("L", at=1.0)
        assert permanent.link_next_window("L", 2.0, 1.0) is None

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            LinkFailure("L", 5.0, 3.0)

    def test_repr_includes_links(self):
        scenario = FailureScenario.link_down("L")
        assert "LinkFailure" in repr(scenario)


class TestLinkFailureExecution:
    def test_comms_on_dead_link_are_lost(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=0.3)
        result = schedule_ftbar(problem)
        used_links = {c.link for c in result.schedule.all_comms()}
        if not used_links:
            pytest.skip("schedule has no comms")
        victim = sorted(used_links)[0]
        trace = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario.link_down(victim),
        )
        for comm in trace.comms:
            if comm.link == victim:
                assert comm.status in (EventStatus.LOST, EventStatus.SKIPPED)

    def test_transient_link_failure_delays_comms(self):
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=0.3)
        result = schedule_ftbar(problem)
        comms = result.schedule.all_comms()
        if not comms:
            pytest.skip("schedule has no comms")
        first = comms[0]
        trace = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario(
                [LinkFailure(first.link, 0.0, first.start + 3.0)]
            ),
        )
        outcome = next(
            c
            for c in trace.comms
            if c.link == first.link and c.status is EventStatus.COMPLETED
        )
        assert outcome.start >= first.start + 3.0 - 1e-9

    def test_single_link_failure_often_masked_on_fully_connected(self):
        # Fully connected: a replica's inputs come over pairwise
        # distinct links, so any single link failure leaves at least one
        # arrival per predecessor alive.
        problem = uniform_problem(fork_join(3), processors=3, npf=1,
                                  comm_time=1.0)
        result = schedule_ftbar(problem)
        algorithm = result.expanded_algorithm
        for link in problem.architecture.link_names():
            trace = simulate(
                result.schedule, algorithm, FailureScenario.link_down(link)
            )
            assert trace.all_operations_delivered(algorithm), link

    def test_bus_failure_breaks_the_schedule(self):
        # The paper's limitation, demonstrated: on a shared bus the
        # replicated comms have no disjoint path, so one medium failure
        # loses outputs whenever any data must cross processors.
        algorithm = fork_join(3)
        architecture = single_bus(3)
        exec_times = ExecutionTimes.uniform(
            algorithm.operation_names(), architecture.processor_names(), 1.0
        )
        comm_times = CommunicationTimes.uniform(
            algorithm.dependencies(), architecture.link_names(), 5.0
        )
        problem = ProblemSpec(
            algorithm=algorithm,
            architecture=architecture,
            exec_times=exec_times,
            comm_times=comm_times,
            npf=1,
            name="bus-victim",
        )
        result = schedule_ftbar(problem)
        trace = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario.link_down("BUS"),
        )
        has_cross_processor_comms = bool(result.schedule.all_comms())
        if has_cross_processor_comms:
            assert not trace.all_operations_delivered(result.expanded_algorithm)

    def test_link_failure_shifts_across_iterations(self):
        from repro.simulation.iterative import simulate_iterations
        from repro.simulation.trace import EventStatus as ES

        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=0.3)
        result = schedule_ftbar(problem)
        comms = result.schedule.all_comms()
        if not comms:
            pytest.skip("schedule has no comms")
        victim_link = comms[0].link
        period = result.makespan
        # The link is down only during iteration 1; iterations 0 and 2
        # use it normally.
        run = simulate_iterations(
            result.schedule,
            result.expanded_algorithm,
            iterations=3,
            scenario=FailureScenario(
                [LinkFailure(victim_link, 1.0 * period, 2.0 * period)]
            ),
        )
        first = [c for c in run.iterations[0].trace.comms if c.link == victim_link]
        last = [c for c in run.iterations[2].trace.comms if c.link == victim_link]
        assert all(c.status is ES.COMPLETED for c in first)
        assert all(c.status is ES.COMPLETED for c in last)

    def test_link_failure_causes_detection_mistake(self):
        # With option 2 the receiver cannot distinguish "dead sender"
        # from "dead medium": it blames the (healthy) sender.
        problem = uniform_problem(diamond(), processors=3, npf=1, comm_time=0.3)
        result = schedule_ftbar(problem)
        comms = result.schedule.all_comms()
        if not comms:
            pytest.skip("schedule has no comms")
        victim = comms[0]
        trace = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario.link_down(victim.link),
            DetectionPolicy.TIMEOUT_ARRAY,
        )
        accused = trace.detections.get(victim.target_processor, {})
        assert victim.source_processor in accused
