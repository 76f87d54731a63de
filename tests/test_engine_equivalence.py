"""Equivalence corpus: the compiled kernel against the reference engine.

The compiled kernel (plan cache, indegree ready set, flat arrays) must
schedule exactly like the paper-literal reference engine
(``ftbar_reference`` of ``tests/ftbar_oracle.py``): bit-identical replica
placements, comm orders and observer ``StepRecord`` streams.  Three
layers of protection:

* ``golden_engine_corpus.json`` stores SHA-256 fingerprints recorded
  with the *seed* engine over a corpus of random-DAG problems (seeds x
  npf in {0, 1, 2} x point-to-point/bus topologies); both engines must
  still land on them exactly;
* kernel-vs-reference comparisons re-run both engines in-process over
  the corpus, the option variants and the paper example, comparing
  full event streams rather than hashes so a failure names the
  diverging step;
* a seeded differential corpus of generated instances (P 2-8, four
  topologies, npf 0-2, npl 0-1, homogeneous and heterogeneous tables,
  three option variants, a memory problem) does the same across the
  input space.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.analysis.experiments import _bus_variant
from repro.baselines.hbp import schedule_hbp
from repro.campaign.jobs import build_problem
from repro.campaign.spec import WorkloadSpec
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.workloads.paper_example import build_problem as paper_problem_spec
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests.ftbar_oracle import ftbar_reference

GOLDENS = json.loads(
    (Path(__file__).parent / "golden_engine_corpus.json").read_text()
)


def corpus_problem(seed: int, npf: int, topology: str):
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=18, ccr=1.0, processors=4, npf=npf, seed=seed
        )
    )
    return problem if topology == "p2p" else _bus_variant(problem)


def ftbar_trace(problem, options=None, run=schedule_ftbar):
    """Every engine decision: events, comms and the StepRecord stream.

    ``run`` is the engine entry point: :func:`schedule_ftbar` (the
    kernel) or the oracle's ``ftbar_reference``.
    """
    records = []
    result = run(problem, options, observer=records.append)
    events = [
        (e.operation, e.replica, e.processor, e.start, e.end, e.duplicated)
        for e in result.schedule.all_operations()
    ]
    comms = [
        (c.source, c.target, c.source_replica, c.target_replica, c.link,
         c.start, c.end, c.source_processor, c.target_processor, c.hop_index)
        for c in result.schedule.all_comms()
    ]
    steps = [
        (r.step, r.candidates, r.operation, r.processors, r.urgency,
         sorted(r.pressures.items()), r.makespan)
        for r in records
    ]
    return events, comms, steps


def ftbar_fingerprint(trace) -> str:
    events, comms, steps = trace
    digest = hashlib.sha256()
    for item in (*events, *comms, *steps):
        digest.update(repr(item).encode())
    return digest.hexdigest()


def hbp_fingerprint(problem) -> str:
    result = schedule_hbp(problem)
    digest = hashlib.sha256()
    for e in result.schedule.all_operations():
        digest.update(
            repr((e.operation, e.replica, e.processor, e.start, e.end)).encode()
        )
    for c in result.schedule.all_comms():
        digest.update(
            repr((c.source, c.target, c.source_replica, c.target_replica,
                  c.link, c.start, c.end, c.source_processor,
                  c.target_processor, c.hop_index)).encode()
        )
    return digest.hexdigest()


CORPUS = [
    (seed, npf, topology)
    for seed in (1, 2, 3)
    for npf in (0, 1, 2)
    for topology in ("p2p", "bus")
]


class TestSeedGoldens:
    """Both engines still land exactly on the recorded seed fingerprints."""

    @pytest.mark.parametrize("seed,npf,topology", CORPUS)
    def test_incremental_matches_seed_golden(self, seed, npf, topology):
        """The production engine: the compiled kernel with its cache."""
        problem = corpus_problem(seed, npf, topology)
        golden = GOLDENS[f"N18-seed{seed}-npf{npf}-{topology}"]
        trace = ftbar_trace(problem)
        assert ftbar_fingerprint(trace) == golden["sha256"]

    @pytest.mark.parametrize("seed,npf,topology", CORPUS)
    def test_legacy_matches_seed_golden(self, seed, npf, topology):
        """The full-recompute reference engine."""
        problem = corpus_problem(seed, npf, topology)
        golden = GOLDENS[f"N18-seed{seed}-npf{npf}-{topology}"]
        trace = ftbar_trace(problem, run=ftbar_reference)
        assert ftbar_fingerprint(trace) == golden["sha256"]

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("topology", ("p2p", "bus"))
    def test_hbp_matches_seed_golden(self, seed, topology):
        problem = corpus_problem(seed, 1, topology)
        golden = GOLDENS[f"hbp-N18-seed{seed}-{topology}"]
        assert hbp_fingerprint(problem) == golden["sha256"]


def assert_kernel_matches_reference(problem, options=None):
    """Kernel and reference traces, compared step by step."""
    new = ftbar_trace(problem, options)
    old = ftbar_trace(problem, options, run=ftbar_reference)
    assert new[0] == old[0], "replica placements diverge"
    assert new[1] == old[1], "comm orders diverge"
    for new_step, old_step in zip(new[2], old[2]):
        assert new_step == old_step, f"StepRecord diverges: {new_step[0]}"
    assert len(new[2]) == len(old[2])


class TestOldVsNew:
    """Kernel vs reference engine compared step-by-step, not just by hash."""

    def assert_identical(self, problem, options_kwargs=None):
        assert_kernel_matches_reference(
            problem, SchedulerOptions(**(options_kwargs or {}))
        )

    @pytest.mark.parametrize("seed,npf,topology", CORPUS)
    def test_corpus(self, seed, npf, topology):
        self.assert_identical(corpus_problem(seed, npf, topology))

    @pytest.mark.parametrize(
        "variant",
        [
            {"processor_aware_pressure": True},
            {"duplication": False},
        ],
        ids=lambda v: next(iter(v)),
    )
    def test_option_variants(self, variant):
        self.assert_identical(corpus_problem(2, 1, "p2p"), variant)
        self.assert_identical(corpus_problem(2, 1, "bus"), variant)

    def test_paper_example(self, paper_problem):
        self.assert_identical(paper_problem)
        result = schedule_ftbar(paper_problem)
        assert result.makespan == pytest.approx(15.05)

    def test_heterogeneous_tables(self):
        problem = generate_problem(
            RandomWorkloadConfig(
                operations=14, ccr=1.0, processors=4, npf=1, seed=7,
                heterogeneous=True,
            )
        )
        self.assert_identical(problem)

    def test_multi_hop_ring(self):
        # A ring forces store-and-forward routes, exercising the
        # kernel's non-repairable plan path.
        from repro.hardware.topologies import ring
        from repro.problem import ProblemSpec
        from repro.timing.comm_times import CommunicationTimes
        from repro.timing.exec_times import ExecutionTimes

        base = generate_problem(
            RandomWorkloadConfig(operations=12, ccr=1.0, processors=4,
                                 npf=1, seed=9)
        )
        architecture = ring(4)
        comm_times = CommunicationTimes()
        for edge in base.algorithm.dependencies():
            for link in architecture.link_names():
                comm_times.set(edge, link, 3.0)
        exec_times = ExecutionTimes()
        for operation in base.algorithm.operation_names():
            for processor in architecture.processor_names():
                exec_times.set(operation, processor, 10.0)
        problem = ProblemSpec(
            algorithm=base.algorithm,
            architecture=architecture,
            exec_times=exec_times,
            comm_times=comm_times,
            npf=1,
            name="ring-equivalence",
        )
        self.assert_identical(problem)

    def test_cache_actually_serves_hits(self):
        result = schedule_ftbar(corpus_problem(1, 1, "p2p"))
        assert result.stats.cache_hits > 0
        legacy = ftbar_reference(corpus_problem(1, 1, "p2p"))
        assert legacy.stats.cache_hits == 0
        assert (
            result.stats.pressure_evaluations
            < legacy.stats.pressure_evaluations
        )


#: Option variants of the differential corpus.
VARIANTS = {
    "default": SchedulerOptions(),
    "aware": SchedulerOptions(processor_aware_pressure=True),
    "nodup": SchedulerOptions(duplication=False),
}
TOPOLOGY_NAMES = {
    "fc": "fully_connected", "bus": "single_bus", "ring": "ring",
    "star": "star",
}


def differential_cases(count: int = 60, seed: int = 2003) -> list[str]:
    """Seeded case labels ``{topology}{P}-npf{k}-npl{l}-{tables}-{variant}-s{seed}``.

    Rings start at P=3 (two processors form no ring); ``npl = 1`` needs
    two link-disjoint routes between every pair, which only the fully
    connected and ring topologies of P >= 3 offer.
    """
    rng = random.Random(seed)
    labels = []
    while len(labels) < count:
        topology = rng.choice(sorted(TOPOLOGY_NAMES))
        processors = rng.randint(3 if topology == "ring" else 2, 8)
        npf = rng.randint(0, min(2, processors - 1))
        npl = (
            rng.randint(0, 1)
            if topology in ("fc", "ring") and processors >= 3 else 0
        )
        tables = rng.choice(("hom", "het"))
        variant = rng.choice(sorted(VARIANTS))
        label = (
            f"{topology}{processors}-npf{npf}-npl{npl}-{tables}-{variant}"
            f"-s{rng.randint(0, 999)}"
        )
        if label not in labels:
            labels.append(label)
    return labels


def differential_problem(label: str):
    """Rebuild one differential case from its label (deterministic)."""
    shape, npf, npl, tables, _variant, seed = label.split("-")
    topology = shape.rstrip("0123456789")
    processors = int(shape[len(topology):])
    return build_problem(
        WorkloadSpec(
            family="random", size=10 + int(seed[1:]) % 7,
            heterogeneous=tables == "het",
        ),
        TOPOLOGY_NAMES[topology],
        processors,
        int(npf[3:]),
        1.0 + int(seed[1:]) % 3 * 0.5,
        int(seed[1:]),
        npl=int(npl[3:]),
    )


class TestKernelVsReference:
    """The differential corpus: generated instances across the input space."""

    @pytest.mark.parametrize(
        "index,label", list(enumerate(differential_cases())),
        ids=lambda value: str(value),
    )
    def test_generated(self, index, label):
        options = VARIANTS[label.split("-")[4]]
        assert_kernel_matches_reference(differential_problem(label), options)

    def test_memory_problem(self):
        # Pinned memory halves: per-candidate processor pools.
        assert_kernel_matches_reference(paper_problem_spec())
