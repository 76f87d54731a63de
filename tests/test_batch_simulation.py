"""The production simulator against the object-executor oracle.

:meth:`CompiledSchedule.replay` is the only production simulator; the
paper-literal executor survives as ``tests/simulation_oracle.py``.
Every trace of the corpus — operations, comms and detections — must
equal the oracle's exactly, through the two production entry points:
the one-call :func:`simulate` and the cyclic :func:`simulate_iterations`
(each iteration's trace, with timeout-array knowledge carried across
iterations).  The verdict of every verdict-only replay, and the masking
verdicts of the batch engine (crash lanes, replays,
footprint-equivalence pruning), must equal one oracle replay per
scenario too.

The corpus crosses random-DAG schedules (seeds x npf) on point-to-point,
bus, ring and star topologies and ``npl = 1`` route-replicated schedules
with crash subsets at several instants, intermittent crashes and link
failures, under both detection policies — plus a hand-built schedule
whose nominal replay needs the stalled-worklist relaxation (the path
that disables nominal pruning and crash lanes).
"""

import itertools

import pytest

from repro.analysis.experiments import _bus_variant
from repro.analysis.reliability import (
    event_boundary_times,
    fault_tolerance_certificate,
    schedule_reliability,
)
from repro.core.ftbar import schedule_ftbar
from repro.exceptions import SimulationError
from repro.graphs.algorithm import from_dependencies
from repro.schedule.schedule import Schedule
from repro.simulation.batch import BatchScenarioEngine
from repro.simulation.compiled import CompiledSchedule, simulate
from repro.simulation.failures import (
    DetectionPolicy,
    FailureScenario,
    LinkFailure,
    ProcessorFailure,
)
from repro.simulation.iterative import (
    _merge_knowledge,
    _shift_scenario,
    simulate_iterations,
)
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests import certify_oracle, simulation_oracle
from tests.simulation_oracle import ScheduleSimulator


def corpus_schedule(seed: int, npf: int, topology: str = "p2p", npl: int = 0):
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=12, ccr=1.0, processors=4, npf=npf, seed=seed
        )
    )
    if topology == "bus":
        problem = _bus_variant(problem)
    problem.npl = npl
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


def routed_schedule(topology: str, seed: int = 3, npl: int = 0):
    """A ring/star schedule: comms relayed over several hops."""
    from repro.campaign.jobs import build_problem as build_campaign_problem
    from repro.campaign.spec import WorkloadSpec

    problem = build_campaign_problem(
        WorkloadSpec(family="random", size=10), topology, 4, 1, 1.0, seed
    )
    problem.npl = npl
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


def crash_scenarios(schedule, max_size: int = 3, times=(0.0, 5.0, 40.0)):
    processors = schedule.processor_names()
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(processors, size):
            for at in times:
                yield FailureScenario.crashes(subset, at=at)


def mixed_scenarios(schedule):
    """Intermittent crashes, link failures and both combined."""
    processors = schedule.processor_names()
    links = schedule.link_names()
    return [
        FailureScenario.intermittent(processors[0], 2.0, 9.0),
        FailureScenario.intermittent(processors[-1], 0.0, 4.0),
        FailureScenario(
            [
                ProcessorFailure(processors[1], 3.0, 8.0),
                ProcessorFailure(processors[2], 0.0),
            ]
        ),
        FailureScenario.link_down(links[0], at=1.0),
        FailureScenario.link_down(links[-1]),
        FailureScenario(
            [
                LinkFailure(links[-1], 0.0, 6.0),
                ProcessorFailure(processors[0], 4.0),
            ]
        ),
        FailureScenario(
            [
                LinkFailure(links[0], 2.0, 5.0),
                ProcessorFailure(processors[1], 1.0, 7.0),
            ]
        ),
    ]


def assert_traces_equal(reference, candidate, context: str) -> None:
    assert reference.operations == candidate.operations, context
    assert reference.comms == candidate.comms, context
    assert reference.detections == candidate.detections, context


def assert_matches_oracle(schedule, algorithm, scenarios, detection, label):
    """``simulate()`` and the verdict-only replay equal the oracle."""
    oracle = ScheduleSimulator(schedule, algorithm, detection)
    compiled = CompiledSchedule(schedule, algorithm)
    for scenario in [FailureScenario.none(), *scenarios]:
        context = f"{label} {detection} {scenario!r}"
        reference = oracle.run(scenario)
        assert_traces_equal(
            reference,
            simulate(schedule, algorithm, scenario, detection),
            context,
        )
        state = compiled.replay(scenario, detection, verdict_only=True)
        assert (
            state.truncated or state.delivered(compiled)
        ) == reference.all_operations_delivered(algorithm), f"verdict {context}"


def oracle_iterations(schedule, algorithm, iterations, scenario, detection):
    """``IterativeSimulator.run``, each iteration replayed by the oracle."""
    simulator = ScheduleSimulator(schedule, algorithm, detection)
    period = schedule.makespan()
    knowledge: dict[str, set[str]] = {}
    offset = 0.0
    outcomes = []
    for _ in range(iterations):
        trace = simulator.run(
            _shift_scenario(scenario, offset),
            initial_knowledge=knowledge if knowledge else None,
        )
        outcomes.append((offset, trace))
        if detection is DetectionPolicy.TIMEOUT_ARRAY:
            knowledge = _merge_knowledge(knowledge, trace.detections)
        offset = max(offset + period, offset + trace.makespan())
    return outcomes


def assert_iterations_match_oracle(schedule, algorithm, scenario, detection):
    run = simulate_iterations(
        schedule, algorithm, 6, scenario=scenario, detection=detection
    )
    expected = oracle_iterations(schedule, algorithm, 6, scenario, detection)
    assert len(run) == len(expected)
    for outcome, (offset, reference) in zip(run.iterations, expected):
        context = f"{detection} {scenario!r} iteration {outcome.index}"
        assert outcome.offset == offset, context
        assert_traces_equal(reference, outcome.trace, context)


def stall_schedule():
    """A schedule whose nominal replay needs the worklist relaxation.

    ``A``'s second arrival (from ``X/1`` on ``L3``) is statically
    ordered *behind* a comm produced by ``B``, which runs after ``A``
    on the same processor — the conservative wait-for-all-arrivals rule
    deadlocks and the replay fires ``A`` from its first delivered
    arrival, exactly what the blocking-receive executive would do.
    """
    algorithm = from_dependencies([("X", "A"), ("B", "C")])
    schedule = Schedule(["P1", "P2", "P3"], ["L2", "L3"], npf=1, name="stall")
    schedule.place_operation("X", "P2", 0.0, 1.0)
    schedule.place_operation("X", "P3", 0.0, 1.0)
    schedule.place_operation("A", "P1", 2.0, 1.0)
    schedule.place_operation("B", "P1", 3.5, 1.0)
    schedule.place_operation("C", "P3", 6.0, 1.0)
    schedule.place_comm("X", "A", 0, 0, "L2", 1.0, 1.0, "P2", "P1")
    schedule.place_comm("B", "C", 0, 0, "L3", 4.5, 1.0, "P1", "P3")
    schedule.place_comm("X", "A", 1, 0, "L3", 5.6, 0.5, "P3", "P1")
    return schedule, algorithm


class TestTraceEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("npf", [0, 1, 2])
    def test_crash_subsets_bit_identical(self, seed, npf):
        schedule, algorithm = corpus_schedule(seed, npf)
        for detection in DetectionPolicy:
            assert_matches_oracle(
                schedule, algorithm, list(crash_scenarios(schedule)),
                detection, f"seed={seed} npf={npf}",
            )

    @pytest.mark.parametrize("topology", ["p2p", "bus"])
    def test_nominal_equals_executor(self, topology):
        schedule, algorithm = corpus_schedule(0, 1, topology)
        for detection in DetectionPolicy:
            oracle = simulation_oracle.simulate(
                schedule, algorithm, None, detection
            )
            assert_traces_equal(
                oracle,
                simulate(schedule, algorithm, None, detection),
                f"{topology} {detection}",
            )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_bus_topology_with_detection(self, seed):
        schedule, algorithm = corpus_schedule(seed, 1, "bus")
        scenarios = [
            *crash_scenarios(schedule, max_size=2),
            *mixed_scenarios(schedule),
        ]
        for detection in DetectionPolicy:
            assert_matches_oracle(
                schedule, algorithm, scenarios, detection, f"bus seed={seed}"
            )

    @pytest.mark.parametrize("topology", ["ring", "star"])
    def test_multi_hop_routes_bit_identical(self, topology):
        # Ring/star schedules route comms over relays (hop_index > 0),
        # exercising the compiled previous-hop chains.
        schedule, algorithm = routed_schedule(topology)
        assert any(c.hop_index > 0 for c in schedule.all_comms())
        scenarios = [
            *crash_scenarios(schedule, max_size=2, times=(0.0, 8.0)),
            *mixed_scenarios(schedule),
        ]
        for detection in DetectionPolicy:
            assert_matches_oracle(
                schedule, algorithm, scenarios, detection, topology
            )

    @pytest.mark.parametrize("topology", ["p2p", "ring"])
    def test_npl1_route_copies_bit_identical(self, topology):
        # npl = 1 schedules carry every transfer over two link-disjoint
        # routes (two hop chains per replica pair, told apart by route).
        if topology == "p2p":
            schedule, algorithm = corpus_schedule(1, 1, npl=1)
        else:
            schedule, algorithm = routed_schedule("ring", npl=1)
        assert any(c.route > 0 for c in schedule.all_comms())
        if topology == "ring":
            assert any(c.hop_index > 0 for c in schedule.all_comms())
        links = schedule.link_names()
        scenarios = [
            *crash_scenarios(schedule, max_size=1, times=(0.0, 6.0)),
            *mixed_scenarios(schedule),
            *(
                FailureScenario.resource_crashes(procs, broken, at)
                for procs in itertools.combinations(
                    schedule.processor_names(), 1
                )
                for broken in itertools.combinations(links, 1)
                for at in (0.0, 3.0)
            ),
        ]
        for detection in DetectionPolicy:
            assert_matches_oracle(
                schedule, algorithm, scenarios, detection, f"npl=1 {topology}"
            )

    def test_intermittent_and_link_failures(self):
        schedule, algorithm = corpus_schedule(2, 1)
        for detection in DetectionPolicy:
            assert_matches_oracle(
                schedule, algorithm, mixed_scenarios(schedule), detection,
                "mixed",
            )


class TestIterationEquivalence:
    """``simulate_iterations`` against an oracle-driven cyclic run."""

    @pytest.mark.parametrize("topology", ["p2p", "bus", "ring"])
    @pytest.mark.parametrize("detection", list(DetectionPolicy))
    def test_iterations_bit_identical(self, topology, detection):
        if topology == "ring":
            schedule, algorithm = routed_schedule("ring")
        else:
            schedule, algorithm = corpus_schedule(3, 1, topology)
        processors = schedule.processor_names()
        links = schedule.link_names()
        span = schedule.makespan()
        scenarios = [
            FailureScenario.none(),
            # Crash in the middle of iteration 2, for good.
            FailureScenario.crash(processors[0], at=1.5 * span),
            # Down through iterations 1-3, then back.
            FailureScenario.intermittent(
                processors[1], 0.5 * span, 3.5 * span
            ),
            FailureScenario(
                [
                    ProcessorFailure(processors[2], 0.0, 2.2 * span),
                    LinkFailure(links[0], 0.7 * span, 4.1 * span),
                ]
            ),
        ]
        for scenario in scenarios:
            assert_iterations_match_oracle(
                schedule, algorithm, scenario, detection
            )

    def test_detection_knowledge_is_carried(self):
        # A crash detected in iteration 0 enters every later iteration
        # as initial knowledge (recorded at t = 0).
        schedule, algorithm = corpus_schedule(0, 1)
        victim = schedule.all_comms()[0].source_processor
        scenario = FailureScenario.crash(victim, at=0.5 * schedule.makespan())
        detection = DetectionPolicy.TIMEOUT_ARRAY
        run = simulate_iterations(
            schedule, algorithm, 6, scenario=scenario, detection=detection
        )
        for outcome in run.iterations[1:]:
            detections = outcome.trace.detections.values()
            assert any(known.get(victim) == 0.0 for known in detections)
        assert_iterations_match_oracle(
            schedule, algorithm, scenario, detection
        )

    def test_unknown_processor_in_knowledge_rejected(self):
        schedule, algorithm = corpus_schedule(0, 1)
        compiled = CompiledSchedule(schedule, algorithm)
        with pytest.raises(SimulationError, match="lacks"):
            compiled.replay(initial_knowledge={"P1": {"P99"}})


class TestStalledWorklist:
    def test_executor_needs_relaxation(self):
        schedule, algorithm = stall_schedule()
        compiled = CompiledSchedule(schedule, algorithm)
        assert compiled.replay().relaxed_fires == 1

    def test_batched_matches_relaxed_executor(self):
        schedule, algorithm = stall_schedule()
        mixed = mixed_scenarios(schedule)
        scenarios = [*crash_scenarios(schedule, times=(0.0, 0.5, 4.0)), *mixed]
        for detection in DetectionPolicy:
            assert_matches_oracle(
                schedule, algorithm, scenarios, detection, "stall"
            )
            assert_iterations_match_oracle(
                schedule, algorithm, mixed[0], detection
            )

    def test_masking_verdicts_match_on_stall_schedule(self):
        schedule, algorithm = stall_schedule()
        engine = BatchScenarioEngine(schedule, algorithm)
        simulator = ScheduleSimulator(schedule, algorithm)
        times = (0.0, 2.5)
        for size in (1, 2, 3):
            for subset in itertools.combinations(
                schedule.processor_names(), size
            ):
                expected = all(
                    simulator.run(
                        FailureScenario.crashes(subset, at=at)
                    ).all_operations_delivered(algorithm)
                    for at in times
                )
                assert engine.crash_subset_masked(subset, times) == expected


class TestMaskingVerdicts:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("detection", list(DetectionPolicy))
    def test_verdicts_match_legacy(self, seed, detection):
        schedule, algorithm = corpus_schedule(seed, 1)
        engine = BatchScenarioEngine(schedule, algorithm, detection)
        simulator = ScheduleSimulator(schedule, algorithm, detection)
        times = (0.0, 7.5)
        for size in range(0, 4):
            for subset in itertools.combinations(
                schedule.processor_names(), size
            ):
                expected = all(
                    simulator.run(
                        FailureScenario.crashes(subset, at=at)
                    ).all_operations_delivered(algorithm)
                    for at in times
                ) if subset else simulator.run().all_operations_delivered(
                    algorithm
                )
                assert (
                    engine.crash_subset_masked(subset, times) == expected
                ), f"seed={seed} {detection} {subset}"

    def test_nominal_equivalence_pruning(self):
        schedule, algorithm = corpus_schedule(0, 1)
        engine = BatchScenarioEngine(schedule, algorithm)
        late = schedule.makespan() + 1.0
        processor = schedule.processor_names()[0]
        assert engine.crash_subset_masked((processor,), (late,))
        assert engine.stats.pruned_nominal == 1
        assert engine.stats.simulated == 0

    def test_unused_processor_reduction(self):
        # A diamond on 4 processors with npf=0 leaves processors idle;
        # crashing an idle processor is the nominal equivalence class.
        algorithm = from_dependencies([("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        from tests.util import uniform_problem

        problem = uniform_problem(algorithm, processors=4, npf=0)
        result = schedule_ftbar(problem)
        schedule = result.schedule
        engine = BatchScenarioEngine(schedule, result.expanded_algorithm)
        used = {e.processor for e in schedule.all_operations()}
        used |= {c.source_processor for c in schedule.all_comms()}
        used |= {c.target_processor for c in schedule.all_comms()}
        idle = [p for p in schedule.processor_names() if p not in used]
        if not idle:
            pytest.skip("scheduler used every processor for this workload")
        assert engine.crash_subset_masked(tuple(idle), (0.0,))
        assert engine.stats.simulated == 0
        assert engine.stats.lanes == 0

    def test_verdict_memo_across_repeats(self):
        schedule, algorithm = corpus_schedule(1, 1)
        engine = BatchScenarioEngine(schedule, algorithm)
        subset = schedule.processor_names()[:2]
        engine.crash_subset_masked(subset, (0.0,))
        # At instant 0 the first ask is a crash lane, not a replay.
        assert (engine.stats.simulated, engine.stats.lanes) == (0, 1)
        engine.crash_subset_masked(subset, (0.0,))
        assert (engine.stats.simulated, engine.stats.lanes) == (0, 1)
        assert engine.stats.memo_hits >= 1


class TestBatchedReliability:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("npf", [0, 1, 2])
    def test_certificate_bit_identical(self, seed, npf):
        schedule, algorithm = corpus_schedule(seed, npf)
        for crash_times in ((0.0,), event_boundary_times(schedule, limit=6)):
            oracle = certify_oracle.certificate(
                schedule, algorithm, crash_times=crash_times
            )
            batched = fault_tolerance_certificate(
                schedule, algorithm, crash_times=crash_times
            )
            assert batched.to_dict() == oracle.to_dict()
            assert oracle.breaking_subsets == batched.breaking_subsets

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reliability_bit_identical_floats(self, seed):
        schedule, algorithm = corpus_schedule(seed, 1)
        probabilities = {
            p: 0.03 * (i + 1)
            for i, p in enumerate(schedule.processor_names())
        }
        oracle = certify_oracle.reliability(schedule, algorithm, probabilities)
        batched = schedule_reliability(schedule, algorithm, probabilities)
        assert oracle.reliability == batched.reliability
        assert oracle.masked_probability_mass == batched.masked_probability_mass
        assert oracle.guaranteed_lower_bound == batched.guaranteed_lower_bound
        assert oracle.evaluated_subsets == batched.evaluated_subsets

    def test_shared_engine_across_certificate_and_reliability(self):
        schedule, algorithm = corpus_schedule(0, 1)
        engine = BatchScenarioEngine(schedule, algorithm)
        fault_tolerance_certificate(schedule, algorithm, engine=engine)
        before = engine.stats.simulated + engine.stats.lanes
        report = schedule_reliability(
            schedule,
            algorithm,
            {p: 0.1 for p in schedule.processor_names()},
            engine=engine,
        )
        # The 2^P sweep re-asks the certificate's subsets: all memo hits
        # except the sizes the certificate never simulated.
        assert engine.stats.memo_hits > 0
        oracle = certify_oracle.reliability(
            schedule, algorithm, {p: 0.1 for p in schedule.processor_names()}
        )
        assert report.reliability == oracle.reliability
        assert engine.stats.simulated + engine.stats.lanes >= before

    def test_certificate_builds_no_successor_graph(self):
        """Lanes, replays and pruning never need the event successor
        graph; only the sampled certifier's processor ranking builds it."""
        schedule, algorithm = corpus_schedule(0, 1)
        engine = BatchScenarioEngine(schedule, algorithm)
        compiled = engine._compiled
        fault_tolerance_certificate(schedule, algorithm, engine=engine)
        schedule_reliability(
            schedule,
            algorithm,
            {p: 0.1 for p in schedule.processor_names()},
            engine=engine,
        )
        assert engine.stats.lanes > 0
        assert compiled._successors is None
        fault_tolerance_certificate(
            schedule,
            algorithm,
            crash_times=event_boundary_times(schedule, limit=6),
            engine=engine,
        )
        assert engine.stats.simulated > 0
        assert compiled._successors is None
        fractions = engine.processor_cone_fractions()
        assert compiled._successors is not None
        assert set(fractions) == set(engine.involved_processors())
        assert all(0.0 < share <= 1.0 for share in fractions.values())

    def test_engine_detection_mismatch_rejected(self):
        schedule, algorithm = corpus_schedule(0, 1)
        engine = BatchScenarioEngine(schedule, algorithm)
        with pytest.raises(SimulationError, match="detection"):
            fault_tolerance_certificate(
                schedule,
                algorithm,
                detection=DetectionPolicy.TIMEOUT_ARRAY,
                engine=engine,
            )

    def test_engine_schedule_mismatch_rejected(self):
        schedule, algorithm = corpus_schedule(0, 1)
        other_schedule, other_algorithm = corpus_schedule(1, 1)
        engine = BatchScenarioEngine(other_schedule, other_algorithm)
        with pytest.raises(SimulationError, match="different schedule"):
            fault_tolerance_certificate(schedule, algorithm, engine=engine)


class TestFailureScenarioIdentity:
    def test_signature_is_memoized(self):
        scenario = FailureScenario.crashes(("P1", "P2"), at=3.0)
        first = scenario.signature()
        assert scenario.signature() is first

    def test_equality_and_hash_by_content(self):
        one = FailureScenario.crashes(("P2", "P1"), at=3.0)
        two = FailureScenario.crashes(("P1", "P2"), at=3.0)
        assert one == two
        assert hash(one) == hash(two)
        assert one != FailureScenario.crashes(("P1", "P2"), at=4.0)
        assert len({one, two}) == 1

    def test_permanent_failure_set_detection(self):
        crash = FailureScenario.crashes(("P1", "P3"), at=2.0)
        assert crash.permanent_failure_set() == (("P1", "P3"), (), 2.0)
        assert crash.permanent_failure_set() is crash.permanent_failure_set()
        assert FailureScenario.none().permanent_failure_set() is None
        assert (
            FailureScenario.intermittent("P1", 0.0, 5.0).permanent_failure_set()
            is None
        )
        assert FailureScenario.link_down("L1").permanent_failure_set() == (
            (), ("L1",), 0.0
        )
        assert FailureScenario.link_down("L1", 0.0, 4.0).permanent_failure_set() is None
        mixed = FailureScenario(
            [ProcessorFailure("P1", 0.0), ProcessorFailure("P2", 1.0)]
        )
        assert mixed.permanent_failure_set() is None

    def test_compiled_missing_operation_rejected(self):
        schedule, _ = corpus_schedule(0, 1)
        bigger = from_dependencies([("A", "B"), ("A", "Z")])
        with pytest.raises(SimulationError, match="not in the"):
            CompiledSchedule(schedule, bigger)

    def test_truncated_trace_refuses_reconstruction(self):
        schedule, algorithm = corpus_schedule(0, 1)
        compiled = CompiledSchedule(schedule, algorithm)
        state = compiled.replay(verdict_only=True)
        assert state.truncated
        with pytest.raises(SimulationError, match="truncated"):
            state.to_trace(compiled)
