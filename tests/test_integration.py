"""Cross-module integration tests: schedule -> validate -> simulate."""

import pytest

from repro.analysis.metrics import degraded_lengths, overhead_percent
from repro.baselines.hbp import schedule_hbp
from repro.baselines.list_scheduler import schedule_non_fault_tolerant
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.graphs.builder import fork_join, layered
from repro.hardware.topologies import single_bus
from repro.schedule.validation import validate_schedule
from repro.simulation.compiled import simulate
from repro.simulation.failures import (
    DetectionPolicy,
    FailureScenario,
    ProcessorFailure,
)
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from repro.problem import ProblemSpec
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

from tests.util import uniform_problem


class TestFullPipeline:
    def test_schedule_validate_simulate_roundtrip(self):
        problem = generate_problem(
            RandomWorkloadConfig(operations=25, ccr=2.0, npf=1, seed=123)
        )
        result = schedule_ftbar(problem)
        report = validate_schedule(
            result.schedule,
            result.expanded_algorithm,
            problem.architecture,
            problem.exec_times,
            problem.comm_times,
        )
        assert report.ok, str(report)
        lengths = degraded_lengths(result.schedule, result.expanded_algorithm)
        assert set(lengths) == set(problem.architecture.processor_names())

    def test_ftbar_vs_hbp_on_same_problem(self):
        problem = generate_problem(
            RandomWorkloadConfig(operations=30, ccr=5.0, npf=1, seed=77)
        )
        ftbar = schedule_ftbar(problem)
        hbp = schedule_hbp(problem)
        non_ft = schedule_non_fault_tolerant(problem)
        ftbar_overhead = overhead_percent(ftbar.makespan, non_ft.makespan)
        hbp_overhead = overhead_percent(hbp.makespan, non_ft.makespan)
        # At CCR=5 the paper's headline claim: FTBAR wins clearly.
        assert ftbar_overhead < hbp_overhead

    def test_two_failures_masked_with_npf2(self):
        problem = generate_problem(
            RandomWorkloadConfig(operations=12, ccr=1.0, processors=5,
                                 npf=2, seed=55)
        )
        result = schedule_ftbar(problem)
        algorithm = result.expanded_algorithm
        processors = problem.architecture.processor_names()
        for first in processors:
            for second in processors:
                if first >= second:
                    continue
                trace = simulate(
                    result.schedule,
                    algorithm,
                    FailureScenario.crashes([first, second]),
                )
                assert trace.all_operations_delivered(algorithm), (first, second)

    def test_intermittent_failure_with_both_detection_options(self):
        problem = generate_problem(
            RandomWorkloadConfig(operations=15, ccr=1.0, npf=1, seed=88)
        )
        result = schedule_ftbar(problem)
        algorithm = result.expanded_algorithm
        scenario = FailureScenario.intermittent("P1", 5.0, 15.0)
        for policy in (DetectionPolicy.NONE, DetectionPolicy.TIMEOUT_ARRAY):
            trace = simulate(result.schedule, algorithm, scenario, policy)
            assert trace.outputs_completion(algorithm) is not None, policy


class TestBusArchitecture:
    def bus_problem(self, npf: int = 1) -> ProblemSpec:
        algorithm = fork_join(3)
        architecture = single_bus(3)
        exec_times = ExecutionTimes.uniform(
            algorithm.operation_names(), architecture.processor_names(), 1.0
        )
        comm_times = CommunicationTimes.uniform(
            algorithm.dependencies(), architecture.link_names(), 0.5
        )
        return ProblemSpec(
            algorithm=algorithm,
            architecture=architecture,
            exec_times=exec_times,
            comm_times=comm_times,
            npf=npf,
            name="bus-problem",
        )

    def test_bus_schedule_serializes_comms(self):
        problem = self.bus_problem()
        result = schedule_ftbar(problem)
        comms = result.schedule.comms_on("BUS")
        for before, after in zip(comms, comms[1:]):
            assert before.end <= after.start + 1e-9

    def test_bus_single_crash_masked(self):
        problem = self.bus_problem()
        result = schedule_ftbar(problem)
        algorithm = result.expanded_algorithm
        for processor in problem.architecture.processor_names():
            trace = simulate(
                result.schedule, algorithm, FailureScenario.crash(processor)
            )
            assert trace.all_operations_delivered(algorithm)

    def test_bus_overhead_higher_than_point_to_point(self):
        # Section 4.4: on multi-point links the comm replication overhead
        # is higher because comms serialize on the single medium.
        bus = self.bus_problem()
        p2p = uniform_problem(fork_join(3), processors=3, npf=1, comm_time=0.5)
        bus_result = schedule_ftbar(bus)
        p2p_result = schedule_ftbar(p2p)
        assert bus_result.makespan >= p2p_result.makespan


class TestLargerWorkflow:
    def test_layered_graph_full_flow(self):
        problem = uniform_problem(
            layered([2, 3, 2]), processors=4, npf=1, comm_time=2.0
        )
        result = schedule_ftbar(problem)
        report = validate_schedule(
            result.schedule,
            result.expanded_algorithm,
            problem.architecture,
            problem.exec_times,
            problem.comm_times,
        )
        assert report.ok, str(report)
        trace = simulate(
            result.schedule,
            result.expanded_algorithm,
            FailureScenario([ProcessorFailure("P2", 1.0)]),
        )
        assert trace.all_operations_delivered(result.expanded_algorithm)

    def test_options_ablation_end_to_end(self):
        problem = generate_problem(
            RandomWorkloadConfig(operations=20, ccr=5.0, npf=1, seed=99)
        )
        paper = schedule_ftbar(problem, SchedulerOptions())
        no_dup = schedule_ftbar(problem, SchedulerOptions(duplication=False))
        assert paper.makespan <= no_dup.makespan
        assert no_dup.schedule.duplicated_count() == 0
