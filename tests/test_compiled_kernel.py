"""Randomized equivalence corpus for the compiled scheduling kernel.

The kernel must schedule exactly like the reference engine
(``ftbar_reference`` of ``tests/ftbar_oracle.py``, the paper-literal
full-recompute loop): bit-identical replica placements, comm orders and
observer ``StepRecord`` streams.

The corpus spans 32 problems — npf in {0, 1, 2} x npl in {0, 1} x
ring / star / fully-connected / bus topologies x two seeds — plus the
scheduler option variants, the pinned-memory sweep and the HBP
baseline.  The work counters are pinned as literals on the kernel
alone: ``PINNED_COUNTERS`` holds the
(pressure_evaluations, cache_hits) pairs of the exhaustive sweep
(``symmetry=False``); with symmetry pruning on (the default) the
schedules and observer streams stay bit-identical but the counters drop
on the symmetric topologies — those land on the ``PRUNED_COUNTERS``
pins (evaluations, hits, pruned pairs) instead; ring (the route
planner's relay tie-break is not rotation-equivariant) and every
npl >= 1 problem verify no usable group and keep their exhaustive
values with zero pruned pairs.
"""

from __future__ import annotations

import pytest

from test_engine_equivalence import ftbar_trace, hbp_fingerprint

from repro.baselines.hbp import schedule_hbp
from repro.campaign.jobs import build_problem as build_campaign_problem
from repro.campaign.spec import WorkloadSpec
from repro.core.compile import CompiledProblem
from repro.core.ftbar import FTBARScheduler, schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.hardware.topologies import ring, single_bus, star
from repro.problem import ProblemSpec
from repro.timing.comm_times import CommunicationTimes
from repro.workloads.paper_example import build_problem
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests.ftbar_oracle import ReferenceScheduler, ftbar_reference

COMPILED = SchedulerOptions()
COMPILED_NOSYM = SchedulerOptions(symmetry=False)


def reference_trace(problem, options=None):
    """The reference engine's trace (the oracle of this module)."""
    return ftbar_trace(problem, options, run=ftbar_reference)


#: (pressure_evaluations, cache_hits) of the kernel's exhaustive sweep
#: (``symmetry=False``) over the corpus.
PINNED_COUNTERS = {
    "fc4-npf0-seed21": (84, 160),
    "bus4-npf0-seed21": (72, 172),
    "ring4-npf0-seed21": (100, 140),
    "star4-npf0-seed21": (102, 138),
    "fc4-npf1-seed21": (72, 172),
    "bus4-npf1-seed21": (68, 184),
    "ring4-npf1-seed21": (72, 180),
    "star4-npf1-seed21": (78, 174),
    "fc4-npf2-seed21": (72, 180),
    "bus4-npf2-seed21": (72, 180),
    "ring4-npf2-seed21": (81, 171),
    "star4-npf2-seed21": (72, 180),
    "fc4-npf0-npl1-seed21": (52, 112),
    "ring4-npf0-npl1-seed21": (54, 110),
    "fc4-npf1-npl1-seed21": (60, 116),
    "ring4-npf1-npl1-seed21": (48, 128),
    "fc4-npf0-seed22": (80, 160),
    "bus4-npf0-seed22": (68, 176),
    "ring4-npf0-seed22": (100, 140),
    "star4-npf0-seed22": (88, 144),
    "fc4-npf1-seed22": (72, 184),
    "bus4-npf1-seed22": (80, 156),
    "ring4-npf1-seed22": (82, 154),
    "star4-npf1-seed22": (96, 160),
    "fc4-npf2-seed22": (76, 180),
    "bus4-npf2-seed22": (80, 168),
    "ring4-npf2-seed22": (86, 166),
    "star4-npf2-seed22": (83, 169),
    "fc4-npf0-npl1-seed22": (69, 67),
    "ring4-npf0-npl1-seed22": (65, 71),
    "fc4-npf1-npl1-seed22": (66, 94),
    "ring4-npf1-npl1-seed22": (64, 96),
}

#: (pressure_evaluations, cache_hits, symmetry_pruned) of the default
#: engine (symmetry pruning on).  Labels without a usable group (rings,
#: npl >= 1) must reproduce their exhaustive pair with zero pruned pairs.
PRUNED_COUNTERS = {
    "bus4-npf0-seed21": (48, 122, 74),
    "bus4-npf0-seed22": (62, 156, 26),
    "bus4-npf1-seed21": (33, 92, 127),
    "bus4-npf1-seed22": (48, 88, 100),
    "bus4-npf2-seed21": (40, 96, 116),
    "bus4-npf2-seed22": (74, 148, 26),
    "fc4-npf0-npl1-seed21": (52, 112, 0),
    "fc4-npf0-npl1-seed22": (69, 67, 0),
    "fc4-npf0-seed21": (68, 134, 42),
    "fc4-npf0-seed22": (74, 140, 26),
    "fc4-npf1-npl1-seed21": (60, 116, 0),
    "fc4-npf1-npl1-seed22": (66, 94, 0),
    "fc4-npf1-seed21": (35, 86, 123),
    "fc4-npf1-seed22": (35, 89, 132),
    "fc4-npf2-seed21": (60, 161, 31),
    "fc4-npf2-seed22": (70, 160, 26),
    "ring4-npf0-npl1-seed21": (54, 110, 0),
    "ring4-npf0-npl1-seed22": (65, 71, 0),
    "ring4-npf0-seed21": (100, 140, 0),
    "ring4-npf0-seed22": (100, 140, 0),
    "ring4-npf1-npl1-seed21": (48, 128, 0),
    "ring4-npf1-npl1-seed22": (64, 96, 0),
    "ring4-npf1-seed21": (72, 180, 0),
    "ring4-npf1-seed22": (82, 154, 0),
    "ring4-npf2-seed21": (81, 171, 0),
    "ring4-npf2-seed22": (86, 166, 0),
    "star4-npf0-seed21": (83, 111, 46),
    "star4-npf0-seed22": (83, 127, 22),
    "star4-npf1-seed21": (55, 133, 64),
    "star4-npf1-seed22": (76, 127, 53),
    "star4-npf2-seed21": (57, 141, 54),
    "star4-npf2-seed22": (80, 159, 13),
}


def _variant(problem: ProblemSpec, architecture, suffix: str) -> ProblemSpec:
    """The same workload on a different interconnect (uniform durations)."""
    reference = problem.architecture.link_names()[0]
    comm_times = CommunicationTimes()
    for edge in problem.algorithm.dependencies():
        for link in architecture.link_names():
            comm_times.set(
                edge, link, problem.comm_times.time_of(edge, reference)
            )
    return ProblemSpec(
        algorithm=problem.algorithm,
        architecture=architecture,
        exec_times=problem.exec_times,
        comm_times=comm_times,
        npf=problem.npf,
        rtc=problem.rtc,
        name=f"{problem.name}-{suffix}",
        npl=problem.npl,
    )


def corpus_case(label: str) -> ProblemSpec:
    """Rebuild one corpus problem from its label (deterministic)."""
    parts = label.split("-")
    topology = parts[0]
    npf = int(parts[1][3:])
    npl = 1 if "npl1" in parts else 0
    seed = int(parts[-1][4:])
    operations = 12 if npl else 15
    ccr = 1.0 if npl else 1.5
    base = generate_problem(
        RandomWorkloadConfig(
            operations=operations, ccr=ccr, processors=4, npf=npf, seed=seed
        )
    )
    if topology == "bus4":
        problem = _variant(base, single_bus(4), "bus")
    elif topology == "ring4":
        problem = _variant(base, ring(4), "ring")
    elif topology == "star4":
        problem = _variant(base, star(4), "star")
    else:
        problem = base
    problem.npl = npl
    return problem


@pytest.mark.parametrize("label", sorted(PINNED_COUNTERS))
def test_compiled_bit_identical_and_counters_pinned(label):
    """Kernel == reference engine over the corpus; kernel counters pinned."""
    problem = corpus_case(label)
    reference = reference_trace(problem)
    assert ftbar_trace(problem, COMPILED) == reference, (
        f"{label}: engines diverge"
    )
    assert ftbar_trace(problem, COMPILED_NOSYM) == reference, (
        f"{label}: symmetry=False diverges"
    )
    nosym_result = schedule_ftbar(problem, COMPILED_NOSYM)
    counters = (
        nosym_result.stats.pressure_evaluations,
        nosym_result.stats.cache_hits,
    )
    assert counters == PINNED_COUNTERS[label], (
        f"{label}: counters moved from the pinned exhaustive values"
    )
    pruned_result = schedule_ftbar(problem, COMPILED)
    assert (
        pruned_result.stats.pressure_evaluations,
        pruned_result.stats.cache_hits,
        pruned_result.stats.symmetry_pruned,
    ) == PRUNED_COUNTERS[label], (
        f"{label}: symmetry-pruned counters moved from their pins"
    )
    assert nosym_result.stats.symmetry_pruned == 0


def test_pinned_memory_problem_uses_scalar_sweep_bit_identically():
    """Memory halves (per-candidate processor pools) match the oracle."""
    problem = build_problem()
    assert ftbar_trace(problem, COMPILED) == reference_trace(problem)


@pytest.mark.parametrize(
    "options",
    [
        {"processor_aware_pressure": True},
        {"duplication": False},
        {"processor_aware_pressure": True, "duplication": False},
    ],
    ids=["aware", "no-duplication", "aware-no-duplication"],
)
def test_option_variants_bit_identical(options):
    problem = generate_problem(
        RandomWorkloadConfig(operations=20, ccr=2.0, processors=4, npf=1, seed=31)
    )
    variant = SchedulerOptions(**options)
    assert ftbar_trace(problem, variant) == reference_trace(problem, variant)


def test_heterogeneous_problem_bit_identical():
    problem = generate_problem(
        RandomWorkloadConfig(
            operations=24, ccr=1.0, processors=4, npf=1, seed=17,
            heterogeneous=True,
        )
    )
    assert ftbar_trace(problem, COMPILED) == reference_trace(problem)


#: (makespan, pressure_evaluations, cache_hits) of heterogeneous npf 1
#: problems with 1,600 (operation, processor) cells each, sizes the
#: corpus above does not reach.
LARGE_PINS = {
    ("fully_connected", 4, 400): (2217.2578339509196, 1972, 161636),
    ("ring", 8, 200): (983.2075156968019, 6331, 29741),
}


@pytest.mark.parametrize(
    "shape", sorted(LARGE_PINS), ids=lambda shape: f"{shape[0]}{shape[1]}"
)
def test_large_problem_makespan_and_counters_pinned(shape):
    topology, processors, operations = shape
    problem = build_campaign_problem(
        WorkloadSpec(family="random", size=operations, heterogeneous=True),
        topology, processors, 1, 1.0, 7,
    )
    result = schedule_ftbar(problem, COMPILED)
    assert (
        result.makespan,
        result.stats.pressure_evaluations,
        result.stats.cache_hits,
    ) == LARGE_PINS[shape]


#: (pair_evaluations, pair_cache_hits, fingerprint) of HBP per seed.
HBP_PINS = {
    21: (442, 98, "7229373901cf6ce89886d4a78323dd73e45d77d0b4634f547d9ee08925c95cf9"),
    22: (274, 218, "c59bf93cd02104ea8b5f920a7daebea945e00719808360a2000401d48f824d92"),
}


def test_hbp_kernel_path_bit_identical_with_matching_counters():
    """HBP schedules and pair counters on the kernel, pinned as literals."""
    for seed, pins in HBP_PINS.items():
        problem = generate_problem(
            RandomWorkloadConfig(operations=16, ccr=1.0, processors=4, npf=1, seed=seed)
        )
        result = schedule_hbp(problem)
        assert (
            result.stats.pair_evaluations,
            result.stats.pair_cache_hits,
            hbp_fingerprint(problem),
        ) == pins, f"seed {seed}: HBP moved from its pins"


def test_static_tables_match_pressure_calculator():
    """CompiledProblem's S̄/tail equal the oracle's, bit for bit."""
    problem = generate_problem(
        RandomWorkloadConfig(operations=30, ccr=2.0, processors=4, npf=1, seed=3)
    )
    scheduler = FTBARScheduler(problem)
    pressure = ReferenceScheduler(problem).pressure
    sbar, tail = pressure.static_tables()
    assert scheduler._compiled.sbar == sbar
    assert scheduler._compiled.tail == tail


def test_compiled_problem_tables_are_dense_and_name_ordered():
    problem = generate_problem(
        RandomWorkloadConfig(operations=10, ccr=1.0, processors=3, npf=1, seed=1)
    )
    compiled = CompiledProblem(
        problem.algorithm, problem.architecture, problem.exec_times,
        problem.comm_times, problem.npf, problem.npl,
    )
    assert compiled.op_names == problem.algorithm.operation_names()
    assert compiled.proc_names == problem.architecture.processor_names()
    assert list(compiled.op_ids.values()) == sorted(compiled.op_ids.values())
    for op, o in compiled.op_ids.items():
        for proc, p in compiled.proc_ids.items():
            assert compiled.exe[o * compiled.n_procs + p] == (
                problem.exec_times.time_of(op, proc)
            )
