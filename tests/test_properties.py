"""Property-based tests (hypothesis) on the core invariants.

Strategies generate random levelled DAGs with random uniform timings on
fully connected architectures, then check the invariants the paper's
correctness argument rests on:

* structural validity of every FTBAR schedule (replication counts,
  resource exclusivity, data coverage);
* the nominal simulation reproduces the static schedule exactly;
* any single processor crash is masked when ``Npf = 1``;
* determinism;
* serialization round-trips.
"""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ftbar import schedule_ftbar
from repro.baselines.list_scheduler import schedule_non_fault_tolerant
from repro.analysis.metrics import overhead_percent
from repro.schedule.serialization import (
    problem_from_dict,
    problem_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.schedule.validation import validate_schedule
from repro.simulation.compiled import simulate
from repro.simulation.failures import FailureScenario
from repro.simulation.trace import EventStatus
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def workload_configs(draw, max_operations: int = 14, npf_values=(0, 1)):
    """Small random workloads (kept small: each example runs a scheduler)."""
    return RandomWorkloadConfig(
        operations=draw(st.integers(min_value=1, max_value=max_operations)),
        ccr=draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0])),
        processors=draw(st.integers(min_value=2, max_value=4)),
        npf=draw(st.sampled_from(npf_values)),
        heterogeneous=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@given(config=workload_configs())
@_SETTINGS
def test_ftbar_schedules_are_structurally_valid(config):
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    report = validate_schedule(
        result.schedule,
        result.expanded_algorithm,
        problem.architecture,
        problem.exec_times,
        problem.comm_times,
    )
    assert report.ok, str(report)


@given(config=workload_configs())
@_SETTINGS
def test_every_operation_has_npf_plus_one_replicas_on_distinct_processors(config):
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    for operation in problem.algorithm.operation_names():
        replicas = result.schedule.replicas_of(operation)
        processors = [r.processor for r in replicas]
        assert len(replicas) >= config.npf + 1
        assert len(set(processors)) == len(processors)


@given(config=workload_configs())
@_SETTINGS
def test_nominal_simulation_reproduces_static_schedule(config):
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    trace = simulate(result.schedule, result.expanded_algorithm)
    for event in result.schedule.all_operations():
        outcome = trace.operation_outcome(event.operation, event.replica)
        assert outcome.status is EventStatus.COMPLETED
        assert math.isclose(outcome.start, event.start, abs_tol=1e-6)
        assert math.isclose(outcome.end, event.end, abs_tol=1e-6)


@given(config=workload_configs(npf_values=(1,)))
@_SETTINGS
def test_any_single_crash_is_masked_for_npf1(config):
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    algorithm = result.expanded_algorithm
    for processor in problem.architecture.processor_names():
        trace = simulate(
            result.schedule, algorithm, FailureScenario.crash(processor)
        )
        assert trace.all_operations_delivered(algorithm), processor


@given(config=workload_configs(npf_values=(1,)), at=st.floats(0.0, 50.0))
@_SETTINGS
def test_crash_at_any_time_is_masked_for_npf1(config, at):
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    algorithm = result.expanded_algorithm
    processor = problem.architecture.processor_names()[
        config.seed % config.processors
    ]
    trace = simulate(
        result.schedule, algorithm, FailureScenario.crash(processor, at=at)
    )
    assert trace.all_operations_delivered(algorithm)


@given(config=workload_configs())
@_SETTINGS
def test_scheduling_is_deterministic(config):
    problem = generate_problem(config)
    first = schedule_ftbar(problem)
    second = schedule_ftbar(problem)
    assert first.makespan == second.makespan
    assert [
        (e.operation, e.replica, e.processor, e.start)
        for e in first.schedule.all_operations()
    ] == [
        (e.operation, e.replica, e.processor, e.start)
        for e in second.schedule.all_operations()
    ]


@given(config=workload_configs(npf_values=(1, 2)))
@_SETTINGS
def test_replication_adds_replicas_and_overhead_is_well_defined(config):
    """Replication multiplies the work; the overhead stays below 100 %.

    Note the overhead itself may be *negative* at high CCR: forcing
    ``Npf + 1`` replicas makes the heuristic keep data local, which can
    beat the greedy distributed non-FT schedule when comms dominate.
    """
    problem = generate_problem(config)
    if config.npf + 1 > config.processors:
        return  # replication infeasible by construction
    ft = schedule_ftbar(problem)
    non_ft = schedule_non_fault_tolerant(problem)
    assert ft.schedule.replica_count() >= non_ft.schedule.replica_count()
    assert overhead_percent(ft.makespan, non_ft.makespan) < 100.0


@given(config=workload_configs())
@_SETTINGS
def test_problem_serialization_roundtrip(config):
    problem = generate_problem(config)
    rebuilt = problem_from_dict(problem_to_dict(problem))
    assert rebuilt.algorithm.dependencies() == problem.algorithm.dependencies()
    assert rebuilt.exec_times.entries() == problem.exec_times.entries()
    assert rebuilt.comm_times.entries() == problem.comm_times.entries()
    assert rebuilt.npf == problem.npf


@given(config=workload_configs())
@_SETTINGS
def test_schedule_serialization_roundtrip(config):
    problem = generate_problem(config)
    schedule = schedule_ftbar(problem).schedule
    rebuilt = schedule_from_dict(schedule_to_dict(schedule))
    assert rebuilt.makespan() == schedule.makespan()
    assert rebuilt.replica_count() == schedule.replica_count()
    assert rebuilt.comm_count() == schedule.comm_count()


@given(
    durations=st.lists(
        st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=8
    ),
    seed=st.integers(0, 1000),
)
@_SETTINGS
def test_makespan_lower_bound_is_critical_path(durations, seed):
    """On one processor with Npf=0 the makespan is the sum of durations."""
    from repro.graphs.builder import linear_chain
    from tests.util import uniform_problem

    rng = random.Random(seed)
    chain = linear_chain(len(durations))
    problem = uniform_problem(chain, processors=1, npf=0)
    for index, duration in enumerate(durations):
        problem.exec_times.set(f"T{index}", "P1", duration)
    del rng
    result = schedule_ftbar(problem)
    assert math.isclose(result.makespan, sum(durations), rel_tol=1e-9)
