"""Crash lanes against the replay: instant-0 verdicts in one pass.

At crash instant 0 with no failure detection, the batch engine answers
a whole request of crash subsets with one bit-parallel dataflow pass
(:meth:`CompiledSchedule.crash_lanes`) instead of one replay per subset.
The replay stays the oracle.  This corpus crosses four topologies,
P 2-8 plus P 16/32 points, npf 0-2 and npl 0-1, and checks at every
level up to npf+1 crashes and npl+1 broken links:

* each lane verdict against a per-pair compiled replay;
* certificate documents and reliability floats against the
  per-scenario oracle (``tests/certify_oracle.py``), byte for byte;
* the sampled paths (P > 12) against the same engine with lanes
  disabled;
* masking is downward closed at instant 0 (an oracle that does not use
  the replay at all).

It also pins the fallbacks to the replay: a zero-duration event, a
baseline that needs the stalled-worklist relaxation, every detection
policy and crash instants other than 0.
"""

import functools
import itertools
import json
import random

import pytest

from repro.analysis import sampling
from repro.analysis.reliability import (
    fault_tolerance_certificate,
    schedule_reliability,
)
from repro.core.ftbar import schedule_ftbar
from repro.graphs.algorithm import from_dependencies
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule
from repro.simulation.batch import BatchScenarioEngine
from repro.simulation.compiled import CompiledSchedule
from repro.simulation.failures import DetectionPolicy, FailureScenario
from repro.workloads.random_dag import (
    generate_algorithm,
    generate_comm_times,
    generate_exec_times,
)
from tests import certify_oracle
from tests.simulation_oracle import ScheduleSimulator
from tests.test_batch_simulation import stall_schedule

TOPOLOGIES = {
    "fully_connected": fully_connected,
    "single_bus": single_bus,
    "star": star,
    "ring": ring,
}

#: (topology, P, npf, npl): every topology at P 2-8 with npf cycling
#: through 0-2, link-tolerant schedules where the topology allows two
#: disjoint routes, and the wide points.
CORPUS = (
    [
        (topology, p, min(p % 3, p - 1), 0)
        for topology in TOPOLOGIES
        for p in range(2, 9)
    ]
    + [
        (topology, p, npf, 1)
        for topology in ("fully_connected", "ring")
        for p, npf in ((3, 0), (4, 1), (5, 1))
    ]
    + [
        (topology, p, 1, 0)
        for topology in ("fully_connected", "single_bus", "star")
        for p in (16, 32)
    ]
)


@functools.lru_cache(maxsize=None)
def lane_schedule(topology: str, processors: int, npf: int, npl: int = 0):
    """A seeded heterogeneous random-DAG schedule on one topology."""
    rng = random.Random(f"lanes:{topology}:{processors}:{npf}:{npl}")
    algorithm = generate_algorithm(rng, 5 if processors > 8 else 8)
    architecture = TOPOLOGIES[topology](processors)
    problem = ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=generate_exec_times(
            rng, algorithm, architecture.processor_names(), 10.0, True
        ),
        comm_times=generate_comm_times(
            rng, algorithm, architecture.link_names(), 10.0, True
        ),
        npf=npf,
        npl=npl,
        name=f"lanes-{topology}-P{processors}-npf{npf}-npl{npl}",
    )
    result = schedule_ftbar(problem)
    return result.schedule, result.expanded_algorithm


def level_pairs(schedule, max_procs: int, max_links: int):
    """Every (processor subset, link subset) pair up to the given sizes."""
    processors, links = schedule.processor_names(), schedule.link_names()
    return [
        (procs, broken)
        for size in range(max_procs + 1)
        for link_size in range(min(max_links, len(links)) + 1)
        for procs in itertools.combinations(processors, size)
        for broken in itertools.combinations(links, link_size)
    ]


def replay_masked(compiled, algorithm, procs, links, at=0.0) -> bool:
    """Verdict of one full compiled replay (no lanes)."""
    trace = compiled.replay(
        FailureScenario.resource_crashes(procs, links, at=at)
    )
    return trace.delivered(compiled)


def document(certificate) -> str:
    return json.dumps(certificate.to_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "topology,processors,npf,npl", CORPUS, ids=lambda v: str(v)
)
def test_lanes_match_per_pair_replay(topology, processors, npf, npl):
    schedule, algorithm = lane_schedule(topology, processors, npf, npl)
    engine = BatchScenarioEngine(schedule, algorithm)
    # Link levels up to npl+1 (the wide points stay processor-only).
    pairs = level_pairs(schedule, npf + 1, npl + 1 if processors <= 8 else 0)
    verdicts = engine.crash_subsets_masked(pairs, (0.0,))
    compiled = CompiledSchedule(schedule, algorithm)
    expected = [
        replay_masked(compiled, algorithm, procs, links)
        for procs, links in pairs
    ]
    assert verdicts == expected
    assert engine.stats.simulated == 0
    assert engine.stats.lanes > 0
    assert engine.stats.lane_passes >= 1
    assert engine.stats.scenarios == len(pairs)


@pytest.mark.parametrize(
    "topology,processors,npf,npl", CORPUS, ids=lambda v: str(v)
)
def test_certificate_matches_legacy_bytes(topology, processors, npf, npl):
    schedule, algorithm = lane_schedule(topology, processors, npf, npl)
    certificate = fault_tolerance_certificate(schedule, algorithm)
    oracle = certify_oracle.certificate(schedule, algorithm)
    assert document(certificate) == document(oracle)


def test_refuted_certificate_matches_legacy_bytes():
    # Leaf-to-leaf transfers are relayed by the hub, and crashing the
    # hub breaks this schedule: the document lists breaking subsets.
    schedule, algorithm = lane_schedule("star", 8, 1)
    certificate = fault_tolerance_certificate(schedule, algorithm)
    oracle = certify_oracle.certificate(schedule, algorithm)
    assert certificate.verdict == "refuted" and certificate.breaking_subsets
    assert document(certificate) == document(oracle)


@pytest.mark.parametrize(
    "topology,processors,npf",
    [("fully_connected", 4, 1), ("single_bus", 5, 2), ("star", 6, 1),
     ("ring", 8, 2)],
)
def test_reliability_floats_bit_identical(topology, processors, npf):
    schedule, algorithm = lane_schedule(topology, processors, npf)
    probabilities = {
        p: 0.02 * (i + 1) for i, p in enumerate(schedule.processor_names())
    }
    report = schedule_reliability(schedule, algorithm, probabilities)
    oracle = certify_oracle.reliability(schedule, algorithm, probabilities)
    assert report == oracle


def test_combined_reliability_floats_bit_identical():
    schedule, algorithm = lane_schedule("ring", 4, 1, 1)
    probabilities = {p: 0.05 for p in schedule.processor_names()}
    link_probabilities = {
        l: 0.01 * (i + 1) for i, l in enumerate(schedule.link_names())
    }
    report = schedule_reliability(
        schedule, algorithm, probabilities,
        link_failure_probabilities=link_probabilities,
    )
    oracle = certify_oracle.reliability(
        schedule, algorithm, probabilities,
        link_failure_probabilities=link_probabilities,
    )
    assert report == oracle


@pytest.mark.parametrize(
    "topology,processors", [("fully_connected", 16), ("star", 32)]
)
def test_sampled_paths_match_replay(topology, processors, monkeypatch):
    """Past the exhaustive regime the answers cannot come from the
    per-scenario oracle; disabling lanes (a test-only patch) gives the oracle."""
    schedule, algorithm = lane_schedule(topology, processors, 1)
    probabilities = {p: 0.01 for p in schedule.processor_names()}

    def run():
        engine = BatchScenarioEngine(schedule, algorithm)
        with certify_oracle.sampled_certificates():
            certificate = fault_tolerance_certificate(
                schedule, algorithm, engine=engine, budget=600
            )
        report = schedule_reliability(
            schedule, algorithm, probabilities, engine=engine, budget=600
        )
        return document(certificate), report, engine.stats

    with_lanes, report, stats = run()
    monkeypatch.setattr(CompiledSchedule, "lane_order", lambda self: None)
    oracle, oracle_report, oracle_stats = run()
    assert with_lanes == oracle
    assert report == oracle_report
    assert report.method == "sampled"
    assert stats.simulated == 0 and stats.lanes == oracle_stats.simulated
    assert stats.scenarios == oracle_stats.scenarios
    assert stats.memo_hits == oracle_stats.memo_hits


@pytest.mark.parametrize(
    "topology,processors,npf,npl",
    [("fully_connected", 5, 1, 1), ("single_bus", 7, 2, 0),
     ("star", 8, 2, 0), ("ring", 6, 1, 1), ("star", 16, 1, 0)],
)
def test_masking_is_downward_closed_at_instant_zero(
    topology, processors, npf, npl
):
    schedule, algorithm = lane_schedule(topology, processors, npf, npl)
    engine = BatchScenarioEngine(schedule, algorithm)
    pairs = level_pairs(schedule, npf + 2, npl + 1)
    masked = {
        (frozenset(procs), frozenset(links))
        for (procs, links), ok in zip(
            pairs, engine.crash_subsets_masked(pairs, (0.0,))
        )
        if ok
    }
    assert engine.stats.simulated == 0
    for procs, links in masked:
        for proc in procs:
            assert (procs - {proc}, links) in masked, (procs, links, proc)
        for link in links:
            assert (procs, links - {link}) in masked, (procs, links, link)
    # Not vacuous: the empty subset is masked and something breaks.
    assert (frozenset(), frozenset()) in masked
    assert len(masked) < len(pairs)


@pytest.mark.parametrize(
    "topology,processors,npf,npl",
    [("fully_connected", 5, 1, 1), ("ring", 6, 1, 1), ("single_bus", 7, 1, 0),
     ("star", 16, 1, 0), ("single_bus", 32, 1, 0)],
)
def test_name_and_mask_entry_points_agree_with_the_replay(
    topology, processors, npf, npl
):
    """Random subsets, uninvolved and unknown names, several instants.

    The name entry point, the mask entry point and the per-scenario
    oracle must give the same verdicts, and both engines must count the
    same work.  Breaking the P 7 bus breaks its schedule, so a link bit
    lost on the way to a verdict shows.
    """
    schedule, algorithm = lane_schedule(topology, processors, npf, npl)
    procs, links = schedule.processor_names(), schedule.link_names()
    by_names = BatchScenarioEngine(schedule, algorithm)
    by_masks = BatchScenarioEngine(schedule, algorithm)
    simulator = ScheduleSimulator(schedule, algorithm)
    involved = by_names.involved_processors()
    if processors > 8:
        # The wide points leave processors out of the schedule.
        assert len(involved) < processors
    rng = random.Random(f"entry-points:{topology}:{processors}")
    makespan = schedule.makespan()
    pairs = []
    breaks = 0
    for _ in range(60):
        pool = involved if rng.random() < 0.5 else procs
        crashed = rng.sample(pool, rng.randint(0, min(npf + 2, len(pool))))
        broken = rng.sample(links, rng.randint(0, min(npl + 1, len(links))))
        if rng.random() < 0.3:
            crashed.append("P-unknown")
        if rng.random() < 0.3:
            broken.append("L-unknown")
        pairs.append((tuple(crashed), tuple(broken)))
    for times in ((0.0,), (0.0, makespan / 3), (makespan / 2, 0.0),
                  (makespan * 2,)):
        expected = [
            certify_oracle.masked(
                simulator, algorithm,
                [p for p in crashed if p in procs], times,
                [l for l in broken if l in links],
            )
            for crashed, broken in pairs
        ]
        assert by_names.crash_subsets_masked(pairs, times) == expected
        masks = [
            (
                sum(sampling.name_bits([p for p in crashed if p in procs], procs)),
                sum(sampling.name_bits([l for l in broken if l in links], links)),
            )
            for crashed, broken in pairs
        ]
        assert by_masks.crash_masks_masked(masks, times) == expected
        breaks += expected.count(False)
    assert by_names.stats == by_masks.stats
    assert breaks >= 3
    assert by_names.stats.lanes > 0 and by_names.stats.simulated > 0
    assert by_names.stats.pruned_nominal > 0 and by_names.stats.memo_hits > 0


# ----------------------------------------------------------------------
# fallbacks to the replay
# ----------------------------------------------------------------------

def zero_duration_schedule():
    """``X`` on P1 takes no time, so a crash of P1 at 0 still fits it.

    The completion-only lane rule would call P1's replica lost; the
    replay (and the executor) completes it and delivers its comm.
    """
    algorithm = from_dependencies([("X", "A")])
    schedule = Schedule(["P1", "P2"], ["L1.2"], npf=0, name="zero")
    schedule.place_operation("X", "P1", 0.0, 0.0)
    schedule.place_comm("X", "A", 0, 0, "L1.2", 0.0, 0.0, "P1", "P2")
    schedule.place_operation("A", "P2", 0.0, 1.0)
    return schedule, algorithm


def test_zero_duration_event_takes_the_replay():
    schedule, algorithm = zero_duration_schedule()
    engine = BatchScenarioEngine(schedule, algorithm)
    simulator = ScheduleSimulator(schedule, algorithm)
    pairs = level_pairs(schedule, 2, 1)
    verdicts = engine.crash_subsets_masked(pairs, (0.0,))
    assert verdicts == [
        certify_oracle.masked(simulator, algorithm, procs, (0.0,), links)
        for procs, links in pairs
    ]
    # The crash of P1 alone is masked only because X fits in zero time.
    assert engine.crash_subset_masked(("P1",), (0.0,))
    assert engine.stats.lanes == 0
    assert engine.stats.simulated > 0


def test_unclean_baseline_takes_the_replay():
    schedule, algorithm = stall_schedule()
    engine = BatchScenarioEngine(schedule, algorithm)
    simulator = ScheduleSimulator(schedule, algorithm)
    pairs = level_pairs(schedule, 3, 1)
    verdicts = engine.crash_subsets_masked(pairs, (0.0,))
    assert verdicts == [
        certify_oracle.masked(simulator, algorithm, procs, (0.0,), links)
        for procs, links in pairs
    ]
    assert engine.stats.lanes == 0


@pytest.mark.parametrize("detection", list(DetectionPolicy))
def test_every_detection_policy_matches_the_executor(detection):
    schedule, algorithm = lane_schedule("fully_connected", 5, 1)
    engine = BatchScenarioEngine(schedule, algorithm, detection)
    simulator = ScheduleSimulator(schedule, algorithm, detection)
    pairs = level_pairs(schedule, 2, 0)
    verdicts = engine.crash_subsets_masked(pairs, (0.0,))
    assert verdicts == [
        certify_oracle.masked(simulator, algorithm, procs, (0.0,))
        for procs, _ in pairs
    ]
    if detection is DetectionPolicy.NONE:
        assert engine.stats.lanes > 0 and engine.stats.simulated == 0
    else:
        assert engine.stats.lanes == 0 and engine.stats.simulated > 0


@pytest.mark.parametrize("order", ["zero-first", "zero-last"])
def test_mixed_crash_instants(order):
    schedule, algorithm = lane_schedule("ring", 6, 1)
    late = schedule.makespan() / 3
    times = (0.0, late) if order == "zero-first" else (late, 0.0)
    engine = BatchScenarioEngine(schedule, algorithm)
    simulator = ScheduleSimulator(schedule, algorithm)
    pairs = level_pairs(schedule, 2, 1)
    verdicts = engine.crash_subsets_masked(pairs, times)
    assert verdicts == [
        certify_oracle.masked(simulator, algorithm, procs, times, links)
        for procs, links in pairs
    ]
    # The same request one pair at a time (the pre-lane order) asks the
    # same scenarios: the short-circuit and the counters are unchanged.
    single = BatchScenarioEngine(schedule, algorithm)
    assert [
        single.crash_subset_masked(procs, times, links)
        for procs, links in pairs
    ] == verdicts
    for name in ("scenarios", "memo_hits", "pruned_nominal"):
        assert getattr(engine.stats, name) == getattr(single.stats, name)
    assert (
        engine.stats.simulated + engine.stats.lanes
        == single.stats.simulated + single.stats.lanes
    )
    assert engine.stats.lanes > 0 and engine.stats.simulated > 0
    assert engine.stats.lane_passes == 1


def test_lane_passes_split_at_the_level_width(monkeypatch):
    import repro.simulation.batch as batch_module

    monkeypatch.setattr(batch_module, "MAX_SUBSETS_PER_LEVEL", 5)
    schedule, algorithm = lane_schedule("star", 6, 2)
    engine = BatchScenarioEngine(schedule, algorithm)
    pairs = level_pairs(schedule, 3, 0)
    verdicts = engine.crash_subsets_masked(pairs, (0.0,))
    compiled = CompiledSchedule(schedule, algorithm)
    assert verdicts == [
        replay_masked(compiled, algorithm, procs, links)
        for procs, links in pairs
    ]
    lanes = engine.stats.lanes
    assert engine.stats.lane_passes == -(-lanes // 5)
    # A repeat is answered from the verdict memo.
    assert engine.crash_subsets_masked(pairs, (0.0,)) == verdicts
    assert engine.stats.lanes == lanes
