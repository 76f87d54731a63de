"""Second round of property-based tests: baselines, runtime, analysis.

These complement ``test_properties.py`` with invariants across the
subsystems added on top of the core reproduction: HBP masking, the
iterative executor, the exhaustive certificate's consistency with the
plain simulator, and the renderers' totality.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.reliability import fault_tolerance_certificate
from repro.baselines.hbp import schedule_hbp
from repro.core.ftbar import schedule_ftbar
from repro.schedule.gantt import render_gantt, schedule_table
from repro.schedule.graphviz import schedule_to_dot
from repro.schedule.validation import validate_schedule
from repro.simulation.compiled import simulate
from repro.simulation.failures import FailureScenario
from repro.simulation.iterative import simulate_iterations
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_configs(draw, npf_values=(1,), heterogeneous=None):
    return RandomWorkloadConfig(
        operations=draw(st.integers(min_value=1, max_value=10)),
        ccr=draw(st.sampled_from([0.5, 1.0, 5.0])),
        processors=draw(st.integers(min_value=3, max_value=4)),
        npf=draw(st.sampled_from(npf_values)),
        heterogeneous=(
            draw(st.booleans()) if heterogeneous is None else heterogeneous
        ),
        seed=draw(st.integers(min_value=0, max_value=5_000)),
    )


@given(config=small_configs(heterogeneous=False))
@_SETTINGS
def test_hbp_schedules_validate_and_mask_single_crashes(config):
    problem = generate_problem(config)
    result = schedule_hbp(problem)
    report = validate_schedule(
        result.schedule,
        problem.algorithm,
        problem.architecture,
        problem.exec_times,
        problem.comm_times,
    )
    assert report.ok, str(report)
    for processor in problem.architecture.processor_names():
        trace = simulate(
            result.schedule, problem.algorithm, FailureScenario.crash(processor)
        )
        assert trace.all_operations_delivered(problem.algorithm), processor


@given(config=small_configs(), iterations=st.integers(1, 4))
@_SETTINGS
def test_nominal_iterations_are_identical_copies(config, iterations):
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    run = simulate_iterations(
        result.schedule, result.expanded_algorithm, iterations=iterations
    )
    assert len(run) == iterations
    assert run.delivered_count() == iterations
    single = simulate(result.schedule, result.expanded_algorithm).makespan()
    for outcome in run.iterations:
        assert abs(outcome.trace.makespan() - single) < 1e-9


@given(config=small_configs())
@_SETTINGS
def test_certificate_agrees_with_direct_simulation(config):
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    algorithm = result.expanded_algorithm
    certificate = fault_tolerance_certificate(result.schedule, algorithm)
    # Level-1 masking must agree with one-by-one simulation.
    masked_directly = sum(
        1
        for processor in result.schedule.processor_names()
        if simulate(
            result.schedule, algorithm, FailureScenario.crash(processor)
        ).all_operations_delivered(algorithm)
    )
    assert certificate.level(1).masked_subsets == masked_directly
    assert certificate.certified


@given(config=small_configs(npf_values=(0, 1)))
@_SETTINGS
def test_renderers_are_total(config):
    """Every schedule renders to Gantt, table and DOT without error."""
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    gantt = render_gantt(result.schedule)
    table = schedule_table(result.schedule)
    dot = schedule_to_dot(result.schedule)
    assert gantt and table
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")


@st.composite
def random_scenarios(draw, processors: tuple[str, ...]):
    """A random set of non-overlapping failure intervals."""
    from repro.simulation.failures import ProcessorFailure

    failures = []
    for processor in processors:
        if not draw(st.booleans()):
            continue
        at = draw(st.floats(min_value=0.0, max_value=100.0))
        permanent = draw(st.booleans())
        if permanent:
            failures.append(ProcessorFailure(processor, at))
        else:
            length = draw(st.floats(min_value=0.1, max_value=50.0))
            failures.append(ProcessorFailure(processor, at, at + length))
    return FailureScenario(failures)


@given(config=small_configs(npf_values=(0, 1)), data=st.data())
@_SETTINGS
def test_simulator_consistency_under_arbitrary_scenarios(config, data):
    """Physical consistency of every degraded run.

    Whatever the failure pattern: completed operations only execute
    while their processor is up; completed comms only occupy the link
    while their sender is up; a completed comm's producer completed
    before it; resource exclusivity holds on the re-timed events.
    """
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    algorithm = result.expanded_algorithm
    scenario = data.draw(
        random_scenarios(problem.architecture.processor_names())
    )
    trace = simulate(result.schedule, algorithm, scenario)

    producers = {
        (o.operation, o.replica): o for o in trace.operations
    }
    for operation in trace.operations:
        if operation.status.value != "completed":
            continue
        assert scenario.up_during(
            operation.processor, operation.start, operation.end
        ), operation
    for comm in trace.comms:
        if comm.status.value != "completed":
            continue
        assert scenario.up_during(
            comm.source_processor, comm.start, comm.end
        ), comm
        if comm.hop_index == 0:
            producer = producers[(comm.source, comm.source_replica)]
            assert producer.status.value == "completed"
            assert comm.start >= producer.end - 1e-9
    # Re-timed resource exclusivity.
    by_processor: dict[str, list] = {}
    for operation in trace.operations:
        if operation.status.value == "completed":
            by_processor.setdefault(operation.processor, []).append(operation)
    for events in by_processor.values():
        events.sort(key=lambda e: e.start)
        for before, after in zip(events, events[1:]):
            assert before.end <= after.start + 1e-9
    by_link: dict[str, list] = {}
    for comm in trace.comms:
        if comm.status.value == "completed":
            by_link.setdefault(comm.link, []).append(comm)
    for events in by_link.values():
        events.sort(key=lambda e: e.start)
        for before, after in zip(events, events[1:]):
            assert before.end <= after.start + 1e-9


@given(config=small_configs(npf_values=(1,)))
@_SETTINGS
def test_degraded_makespan_never_below_surviving_static_work(config):
    """A crash cannot finish the *surviving* work earlier than nominal.

    The first complete input set of a replica can only get later when
    senders disappear, so every surviving completed operation ends at or
    after its static date.
    """
    problem = generate_problem(config)
    result = schedule_ftbar(problem)
    algorithm = result.expanded_algorithm
    for processor in result.schedule.processor_names():
        trace = simulate(
            result.schedule, algorithm, FailureScenario.crash(processor)
        )
        for event in result.schedule.all_operations():
            if event.processor == processor:
                continue
            outcome = trace.operation_outcome(event.operation, event.replica)
            if outcome.status.value == "completed":
                assert outcome.end >= event.end - 1e-6
