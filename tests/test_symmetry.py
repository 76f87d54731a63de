"""Randomized corpus for the kernel's topology-symmetry pruning.

``test_compiled_kernel.py`` pins a fixed corpus with literal counter
values; this module sweeps a *randomized* corpus — fresh seeds over
every topology x npf x npl combination — and checks the property that
makes pruning admissible at all: a pruned run must be indistinguishable
from an unpruned one everywhere except the work counters.  Schedules,
serialized content hashes and the full StepRecord stream must be
bit-identical, and the orbit structure of each topology is pinned
(fully connected and bus collapse to one orbit, the star to two, rings
and every ``npl >= 1`` problem verify no usable group).

It also keeps the full-table verifier that ``build_symmetry`` replaced
as a test oracle: every candidate checked against the whole execution
and communication tables and every route.  The support-restricted
production verifier must accept exactly the same generators.
"""

from __future__ import annotations

import pytest

from test_engine_equivalence import ftbar_fingerprint, ftbar_trace

from repro.core.compile import CompiledProblem
from repro.core.ftbar import schedule_ftbar
from repro.core.kernel import SchedulingKernel
from repro.core.options import SchedulerOptions
from repro.core.symmetry import build_symmetry, orbit_representatives
from repro.graphs.algorithm import AlgorithmGraph
from repro.hardware.architecture import Architecture
from repro.hardware.link import Link
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule
from repro.schedule.serialization import content_hash, schedule_to_dict
from repro.timing.comm_times import CommunicationTimes
from repro.timing.exec_times import ExecutionTimes
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
from tests.ftbar_oracle import ftbar_reference

COMPILED = SchedulerOptions()
COMPILED_NOSYM = SchedulerOptions(symmetry=False)

TOPOLOGIES = ("fc4", "bus4", "ring4", "star4")
#: Only these topologies offer 2 link-disjoint routes between every
#: processor pair, so npl=1 is feasible on them alone.
NPL1_TOPOLOGIES = ("fc4", "ring4")
SEEDS = (131, 132, 133, 134, 135)


def _on_topology(problem: ProblemSpec, architecture, suffix: str) -> ProblemSpec:
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


def corpus_problem(topology: str, npf: int, npl: int, seed: int) -> ProblemSpec:
    """One randomized corpus problem (deterministic per coordinate)."""
    # Vary the graph size with the seed so the corpus covers different
    # candidate-set shapes, not five reruns of one shape.
    operations = 10 + (seed % 4) * 2 + (2 if npl == 0 else 0)
    base = generate_problem(
        RandomWorkloadConfig(
            operations=operations,
            ccr=1.0 + 0.25 * (seed % 3),
            processors=4,
            npf=npf,
            seed=seed,
        )
    )
    if topology == "bus4":
        problem = _on_topology(base, single_bus(4), "bus")
    elif topology == "ring4":
        problem = _on_topology(base, ring(4), "ring")
    elif topology == "star4":
        problem = _on_topology(base, star(4), "star")
    else:
        problem = base
    problem.npl = npl
    return problem


def corpus_coordinates() -> list[tuple[str, int, int, int]]:
    coordinates = []
    for topology in TOPOLOGIES:
        for npf in (0, 1, 2):
            for npl in (0, 1):
                if npl and topology not in NPL1_TOPOLOGIES:
                    continue
                for seed in SEEDS:
                    coordinates.append((topology, npf, npl, seed))
    return coordinates


def _compiled(problem: ProblemSpec) -> CompiledProblem:
    return CompiledProblem(
        problem.algorithm,
        problem.architecture,
        problem.exec_times,
        problem.comm_times,
        problem.npf,
        problem.npl,
    )


@pytest.mark.parametrize(
    "topology,npf,npl,seed",
    corpus_coordinates(),
    ids=lambda value: str(value),
)
def test_pruned_indistinguishable_from_unpruned(topology, npf, npl, seed):
    """Pruning may only change the counters, never the output."""
    problem = corpus_problem(topology, npf, npl, seed)
    pruned_trace = ftbar_trace(problem, COMPILED)
    unpruned_trace = ftbar_trace(problem, COMPILED_NOSYM)
    label = f"{topology}-npf{npf}-npl{npl}-seed{seed}"
    # The trace covers every scheduled event, every placed communication
    # and the full StepRecord stream; equal traces mean equal hashes,
    # but assert the fingerprints too so a failure names the digest.
    assert pruned_trace == unpruned_trace, f"{label}: traces diverge"
    assert ftbar_fingerprint(pruned_trace) == ftbar_fingerprint(
        unpruned_trace
    ), f"{label}: fingerprints diverge"
    assert pruned_trace == ftbar_trace(problem, run=ftbar_reference), (
        f"{label}: compiled diverges from the reference engine"
    )

    pruned = schedule_ftbar(problem, COMPILED)
    unpruned = schedule_ftbar(problem, COMPILED_NOSYM)
    assert content_hash(
        "schedule", schedule_to_dict(pruned.schedule)
    ) == content_hash("schedule", schedule_to_dict(unpruned.schedule)), (
        f"{label}: serialized schedules diverge"
    )
    assert unpruned.stats.symmetry_pruned == 0, label
    group = _compiled(problem).symmetry_group()
    if group is None:
        # No usable group: pruning must be a strict no-op, counters
        # included.
        assert pruned.stats.symmetry_pruned == 0, label
        assert (
            pruned.stats.pressure_evaluations,
            pruned.stats.cache_hits,
        ) == (
            unpruned.stats.pressure_evaluations,
            unpruned.stats.cache_hits,
        ), f"{label}: counters moved without a group"
    else:
        # A live group never *adds* work: every evaluation it skips is
        # accounted in symmetry_pruned.
        assert pruned.stats.pressure_evaluations <= (
            unpruned.stats.pressure_evaluations
        ), label
        assert (
            pruned.stats.pressure_evaluations + pruned.stats.cache_hits
            + pruned.stats.symmetry_pruned
            >= unpruned.stats.pressure_evaluations + unpruned.stats.cache_hits
        ), f"{label}: pruned pairs unaccounted"


@pytest.mark.parametrize("npf", (0, 1, 2))
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_orbit_structure_pinned(npf, seed):
    """Generator and orbit counts are a property of the topology alone."""
    expected = {
        # S4 on the processors: 7 verified generators collapse the
        # interconnect to a single orbit.
        "fc4": (7, 1),
        "bus4": (7, 1),
        # The star's center is fixed; the three leaves form one orbit.
        "star4": (3, 2),
    }
    for topology, (generators, orbits) in expected.items():
        group = _compiled(corpus_problem(topology, npf, 0, seed)).symmetry_group()
        assert group is not None, topology
        assert (len(group.generators), group.orbit_count()) == (
            generators,
            orbits,
        ), topology
    # Rings route multi-hop: the planner's tie-breaks are not
    # equivariant, so verification rejects every candidate.
    assert _compiled(corpus_problem("ring4", npf, 0, seed)).symmetry_group() is None
    # npl >= 1 problems never build a group.
    for topology in NPL1_TOPOLOGIES:
        assert (
            _compiled(corpus_problem(topology, npf, 1, seed)).symmetry_group()
            is None
        )


def test_pruning_engages_on_symmetric_topologies():
    """The corpus actually exercises pruning (not vacuous equivalence)."""
    pruned_somewhere = 0
    for topology in ("fc4", "bus4", "star4"):
        for seed in SEEDS:
            result = schedule_ftbar(
                corpus_problem(topology, 1, 0, seed), COMPILED
            )
            pruned_somewhere += result.stats.symmetry_pruned
    assert pruned_somewhere > 0


def test_liveness_drops_exactly_the_generators_moving_a_changed_link():
    """Processor state alone cannot keep a generator alive."""
    compiled = _compiled(corpus_problem("fc4", 1, 0, SEEDS[0]))
    generators = compiled.symmetry_group().generators
    kernel = SchedulingKernel(
        compiled,
        Schedule(compiled.proc_names, compiled.link_names, npf=1),
    )
    link = next(g for g in generators if g.moved_links).moved_links[0]
    kernel._link_avail[link] = 1.0
    kernel._orbit_reps()
    # The live transpositions are every pair inside a live class.
    group = compiled.symmetry_group()
    alive = [
        group.transposition(a, b)
        for a in range(compiled.n_procs)
        for members in kernel._sym_classes
        if a in members
        for b in members
        if b > a
    ] + kernel._sym_others
    assert alive == [g for g in generators if link not in g.moved_links]
    assert 0 < len(alive) < len(generators)


# ----------------------------------------------------------------------
# oracle: the full-table verifier
# ----------------------------------------------------------------------


def _induced_link_perm(compiled, proc_perm):
    """Link permutation induced by a processor permutation, or ``None``."""
    proc_names = compiled.proc_names
    proc_ids = compiled.proc_ids
    by_endpoints = {}
    links = list(compiled.architecture.links())
    for link in links:
        endpoints = frozenset(link.endpoints)
        if endpoints in by_endpoints:
            return None  # parallel links: name-based tie-breaks, no pruning
        by_endpoints[endpoints] = compiled.link_ids[link.name]
    perm = [-1] * compiled.n_links
    for link in links:
        image = frozenset(
            proc_names[proc_perm[proc_ids[endpoint]]]
            for endpoint in link.endpoints
        )
        target = by_endpoints.get(image)
        if target is None:
            return None
        perm[compiled.link_ids[link.name]] = target
    if sorted(perm) != list(range(compiled.n_links)):
        return None
    return tuple(perm)


def _exe_invariant(compiled, proc_perm):
    exe = compiled.exe
    n_procs = compiled.n_procs
    for o in range(compiled.n_ops):
        base = o * n_procs
        for p in range(n_procs):
            if exe[base + p] != exe[base + proc_perm[p]]:
                return False
    return True


def _comm_invariant(compiled, link_perm):
    for row in compiled.comm_rows.values():
        for l, duration in enumerate(row):
            if duration != row[link_perm[l]]:
                return False
    return True


def _routes_equivariant(compiled, proc_perm, link_perm):
    """The route planner's choices commute with the permutation."""
    n_procs = compiled.n_procs
    proc_names = compiled.proc_names
    proc_ids = compiled.proc_ids

    def map_hops(hops):
        return tuple(
            (
                proc_names[proc_perm[proc_ids[origin]]],
                link_perm[link_id],
                proc_names[proc_perm[proc_ids[relay]]],
            )
            for origin, link_id, relay in hops
        )

    for a in range(n_procs):
        for b in range(n_procs):
            if a == b:
                continue
            image = map_hops(compiled.route_hops(a, b))
            if image != compiled.route_hops(proc_perm[a], proc_perm[b]):
                return False
    if compiled.npl < 1:
        return True
    for a in range(n_procs):
        for b in range(n_procs):
            if a == b:
                continue
            others = [p for p in range(n_procs) if p != a and p != b]
            for mask in range(1 << len(others)):
                avoid = frozenset(
                    proc_names[p]
                    for i, p in enumerate(others)
                    if mask & (1 << i)
                )
                image_avoid = frozenset(
                    proc_names[proc_perm[proc_ids[name]]] for name in avoid
                )
                try:
                    routes = compiled.disjoint_routes(
                        proc_names[a], proc_names[b], avoid
                    )
                except Exception:
                    try:
                        compiled.disjoint_routes(
                            proc_names[proc_perm[a]],
                            proc_names[proc_perm[b]],
                            image_avoid,
                        )
                    except Exception:
                        continue  # both infeasible: equivariant
                    return False
                try:
                    image_routes = compiled.disjoint_routes(
                        proc_names[proc_perm[a]],
                        proc_names[proc_perm[b]],
                        image_avoid,
                    )
                except Exception:
                    return False
                if tuple(map_hops(r) for r in routes) != image_routes:
                    return False
    return True


def reference_generators(compiled):
    """``(proc, link)`` of every candidate the full tables accept."""
    n_procs = compiled.n_procs
    if compiled.pins or n_procs < 2:
        return []
    if compiled.npl >= 1 and n_procs > 6:
        return []
    candidates = []
    for i in range(n_procs):
        for j in range(i + 1, n_procs):
            perm = list(range(n_procs))
            perm[i], perm[j] = j, i
            candidates.append(tuple(perm))
    rotation = tuple((p + 1) % n_procs for p in range(n_procs))
    reflection = tuple((n_procs - p) % n_procs for p in range(n_procs))
    candidates.append(rotation)
    if reflection not in candidates:
        candidates.append(reflection)
    accepted = []
    for proc_perm in candidates:
        link_perm = _induced_link_perm(compiled, proc_perm)
        if (
            link_perm is not None
            and _exe_invariant(compiled, proc_perm)
            and _comm_invariant(compiled, link_perm)
            and _routes_equivariant(compiled, proc_perm, link_perm)
        ):
            accepted.append((proc_perm, link_perm))
    return accepted


def twin_bus(count: int) -> Architecture:
    """Two buses sharing all but one processor each.

    Swapping the two unshared processors swaps the buses without moving
    any processor a route between two shared ones passes through, so
    only the moved-link route index can reject it.
    """
    arc = Architecture("twin-bus")
    names = [f"P{i + 1}" for i in range(count)]
    for name in names:
        arc.add_processor(name)
    arc.add_link(Link.bus("B1", names[:-1]))
    arc.add_link(Link.bus("B2", names[:-2] + names[-1:]))
    return arc


def bus_with_shortcuts(count: int) -> Architecture:
    """A bus over every processor plus point-to-point links P1–P2 ("A")
    and P1–P3 ("Z").

    P1–P2 and P1–P3 are each joined by two direct links (distinct
    endpoint sets, so not parallel links).  Swapping P2 and P3 maps the
    link sets onto each other, but the planner routes P1 → P2 over "A"
    and P1 → P3 over the bus (name order), so only a route check on a
    pair with more than one direct link can reject that swap.
    """
    arc = Architecture("bus-with-shortcuts")
    names = [f"P{i + 1}" for i in range(count)]
    for name in names:
        arc.add_processor(name)
    arc.add_link(Link.bus("M", names))
    arc.add_link(Link.between("A", names[0], names[1]))
    arc.add_link(Link.between("Z", names[0], names[2]))
    return arc


ORACLE_TOPOLOGIES = {
    "fc": fully_connected,
    "bus": single_bus,
    "star": star,
    "ring": ring,
}


def oracle_compiled(architecture, tables: str, npl: int = 0):
    """A diamond graph on ``architecture`` with one table variant.

    ``hom``: uniform tables.  ``het``: execution times alternate by
    processor position and links at the first processor are slower,
    so some candidates fail each table check.  ``dis``: uniform with
    one ``inf`` (``Dis``) entry on the last processor.
    """
    algorithm = AlgorithmGraph("diamond")
    for op in "ABCD":
        algorithm.add_operation(op)
    for source, target in (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")):
        algorithm.add_dependency(source, target)
    procs = architecture.processor_names()
    exec_times = ExecutionTimes()
    for o, op in enumerate("ABCD"):
        for p, proc in enumerate(procs):
            exec_times.set(op, proc, 2.0 + o + (p % 2 if tables == "het" else 0))
    if tables == "dis":
        exec_times.forbid("A", procs[-1])
    comm_times = CommunicationTimes()
    for e, edge in enumerate(algorithm.dependencies()):
        for link in architecture.links():
            slow = tables == "het" and procs[0] in link.endpoints
            comm_times.set(edge, link.name, 1.0 + e + (0.5 if slow else 0.0))
    return CompiledProblem(
        algorithm, architecture, exec_times, comm_times, npf=1, npl=npl
    )


#: One table variant per topology at P=32, where the oracle is slowest.
_WIDE_TABLES = {"fc": "hom", "bus": "dis", "star": "het", "ring": "hom"}


def oracle_coordinates():
    """Every topology x table variant at P 2-8 and 16, npl=1 at P <= 6.

    npl=1 is only feasible on fc and ring; bus and star are kept at
    P <= 4 there, where their all-infeasible enumeration stays cheap.
    """
    coordinates = []
    for topology in ORACLE_TOPOLOGIES:
        for count in (2, 3, 4, 5, 6, 7, 8, 16):
            for tables in ("hom", "het", "dis"):
                coordinates.append((topology, count, tables, 0))
                if count <= (6 if topology in ("fc", "ring") else 4):
                    coordinates.append((topology, count, tables, 1))
        coordinates.append((topology, 32, _WIDE_TABLES[topology], 0))
    return coordinates


def full_link_perm(generator, n_links):
    """Expand a generator's sparse link images to a full permutation."""
    perm = list(range(n_links))
    for l, m in zip(generator.moved_links, generator.link_images):
        perm[l] = m
    return tuple(perm)


def _assert_matches_oracle(compiled, label):
    group = build_symmetry(compiled)
    n_links = compiled.n_links
    assert [
        (generator.proc, full_link_perm(generator, n_links))
        for generator in group.generators
    ] == reference_generators(compiled), label
    assert len(group.generators) == len(list(group.generators)), label
    assert group.orbit_count() == len(set(orbit_representatives(
        compiled.n_procs, (), group.generators
    ))), label
    for generator in group.generators:
        assert generator.moved_procs == tuple(
            p for p, q in enumerate(generator.proc) if p != q
        ), label
        link = full_link_perm(generator, n_links)
        assert generator.moved_links == tuple(
            l for l, m in enumerate(link) if l != m
        ), label
    return group


@pytest.mark.parametrize(
    "topology,count,tables,npl",
    oracle_coordinates(),
    ids=lambda value: str(value),
)
def test_support_verifier_matches_full_table_oracle(
    topology, count, tables, npl
):
    """Same generator tuples as the full-table verifier, moved points exact."""
    architecture = ORACLE_TOPOLOGIES[topology](count)
    compiled = oracle_compiled(architecture, tables, npl)
    _assert_matches_oracle(compiled, f"{topology}{count}-{tables}-npl{npl}")


@pytest.mark.parametrize("count", (4, 6))
def test_moved_bus_rejected_through_route_index(count):
    """A candidate that only moves links a route uses is still rejected."""
    compiled = oracle_compiled(twin_bus(count), "hom")
    group = _assert_matches_oracle(compiled, f"twin-bus{count}")
    swap = list(range(count))
    swap[-2], swap[-1] = count - 1, count - 2
    assert tuple(swap) not in {g.proc for g in group.generators}


@pytest.mark.parametrize("tables", ("hom", "het", "dis"))
@pytest.mark.parametrize("count", (5, 6))
def test_route_checks_run_on_pairs_with_two_direct_links(count, tables):
    """A pair joined by a p2p link and a bus still has its route checked."""
    compiled = oracle_compiled(bus_with_shortcuts(count), tables)
    group = _assert_matches_oracle(
        compiled, f"bus-with-shortcuts{count}-{tables}"
    )
    procs = {g.proc for g in group.generators}
    assert _swap(count, 1, 2) not in procs
    if tables == "hom":
        assert _swap(count, count - 2, count - 1) in procs


def _swap(count, a, b):
    perm = list(range(count))
    perm[a], perm[b] = b, a
    return tuple(perm)


@pytest.mark.parametrize(
    "topology,verifications",
    (("fc", 33), ("bus", 33), ("star", 63), ("ring", 32 * 31 // 2 + 2)),
)
def test_verifications_per_build_at_p32(topology, verifications):
    """One transposition per processor on homogeneous fc and bus (498
    when every pair was a candidate); rings, where no transposition
    passes, still check every pair."""
    compiled = oracle_compiled(ORACLE_TOPOLOGIES[topology](32), "hom")
    assert build_symmetry(compiled).verifications == verifications


def _reference_reps(kernel):
    """The per-generator liveness check the class split replaced."""
    alive = getattr(kernel, "_reference_alive", None)
    if alive is None:
        alive = list(kernel._sym.generators)
    ops = kernel._op_buffer
    delta = {record[6] for record in ops[getattr(kernel, "_reference_mark", 0):]}
    kernel._reference_mark = len(ops)
    n_procs = kernel._P
    proc_avail, link_avail = kernel._proc_avail, kernel._link_avail
    rep_end = kernel._rep_end
    alive = kernel._reference_alive = [
        g for g in alive
        if all(proc_avail[p] == proc_avail[g.proc[p]] for p in g.moved_procs)
        and all(
            link_avail[l] == link_avail[m]
            for l, m in zip(g.moved_links, g.link_images)
        )
        and all(
            rep_end[o * n_procs + p] == rep_end[o * n_procs + g.proc[p]]
            for o in delta for p in g.moved_procs
        )
    ]
    return orbit_representatives(n_procs, (), alive) if alive else None


@pytest.mark.parametrize("topology", ("fc", "bus", "star"))
@pytest.mark.parametrize("npf", (0, 1, 2))
def test_class_liveness_matches_per_generator_liveness(
    monkeypatch, topology, npf
):
    """At every sweep, per-class liveness yields the orbit
    representatives of the per-generator check it replaced."""
    production = SchedulingKernel._orbit_reps
    sweeps = []

    def checked(kernel):
        expected = _reference_reps(kernel)
        reps = production(kernel)
        assert reps == expected
        sweeps.append(reps is not None and len(set(reps)) < kernel._P)
        return reps

    monkeypatch.setattr(SchedulingKernel, "_orbit_reps", checked)
    base = generate_problem(RandomWorkloadConfig(
        operations=24, ccr=1.0, processors=8, npf=npf, seed=11 + npf,
    ))
    architecture = ORACLE_TOPOLOGIES[topology](8)
    problem = _on_topology(base, architecture, topology)
    schedule_ftbar(problem, COMPILED)
    assert any(sweeps)


def test_oracle_corpus_is_not_vacuous():
    """The oracle sweep accepts generators and also rejects some."""
    kept = build_symmetry(oracle_compiled(fully_connected(8), "het"))
    assert 0 < len(kept.generators) < 8 * 7 // 2
    dis = build_symmetry(oracle_compiled(star(6), "dis"))
    assert dis.generators and all(
        5 not in g.moved_procs for g in dis.generators
    )
