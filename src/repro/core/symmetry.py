"""Topology automorphisms for the compiled kernel's candidate pruning.

On the regular interconnects the paper benchmarks (fully connected,
bus, ring, star) most of a macro-step's candidate evaluations are
isomorphic: while the partial schedule still looks the same from
processor ``p`` and from ``g(p)`` for an automorphism ``g`` of the
*problem* (not just the graph — execution and communication tables and
the route planner's choices must commute with ``g`` too), the pressure
``σ(o, p)`` and ``σ(o, g(p))`` are bit-identical, so the kernel can
evaluate one representative per orbit and copy its σ to the others
(see ``KernelScheduler._orbit_reps``).

This module computes the *static* half of that argument once per
compiled problem: candidate processor permutations read off the
topology shape (transpositions for the generic/orbit-refinement case,
rotations and reflections for rings), each **verified** — never
assumed — on its *support* (the processors and links it moves and the
routes touching them: a fixed point cannot break invariance) against

* the induced link permutation (endpoint sets must map to endpoint
  sets),
* the execution table (``Exe(o, p) == Exe(o, g(p))``, ``inf``
  included, so distribution constraints are preserved),
* the communication table (every edge's duration is invariant under
  the link permutation),
* route equivariance: the planner's chosen route from ``a`` to ``b``
  must map hop-by-hop onto its choice for ``g(a) → g(b)`` — this is
  what makes the *tie-breaks* inside multi-hop planning commute with
  ``g``, not just the route lengths,
* for ``npl >= 1``, the same equivariance for every ``npl + 1``-route
  disjoint set over every avoidance subset (enumerable because the
  check is gated to small processor counts).

Anything that breaks bit-exactness wholesale — memory pins, parallel
direct links (whose min-end tie-break reads link *names*) — disables
the group entirely.  The *dynamic* half (is the partial schedule still
invariant under ``g``?) is the kernel's per-sweep aliveness check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ArchitectureError

#: With link replication the verification enumerates avoidance subsets,
#: which is exponential in the processor count; past this size the
#: group is simply not built.
_NPL_VERIFY_MAX_PROCS = 6


@dataclass(frozen=True)
class Generator:
    """A verified processor permutation and its sparse induced link
    permutation: ``moved_links[i]`` (ascending) maps to ``link_images[i]``
    and every other link is fixed."""

    proc: tuple[int, ...]
    moved_procs: tuple[int, ...]
    moved_links: tuple[int, ...]
    link_images: tuple[int, ...]


@dataclass(frozen=True)
class KernelSymmetry:
    """The verified generators of one compiled problem."""

    generators: tuple[Generator, ...]
    n_procs: int

    def orbit_count(self) -> int:
        """Number of processor orbits under the full verified group."""
        return len(set(orbit_representatives(self.generators, self.n_procs)))


def orbit_representatives(
    generators: tuple[Generator, ...] | list[Generator], n_procs: int
) -> list[int]:
    """``rep[p]`` = smallest processor id in ``p``'s orbit.

    Plain union-find over the generator edges ``p — g(p)`` of the moved
    points; the smallest-id representative is what makes pruning pick
    the same processor the exhaustive argmin/argmax tie-breaks would
    (ties resolve to the lowest id, and every orbit member carries an
    equal value).
    """
    parent = list(range(n_procs))

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for generator in generators:
        proc = generator.proc
        for p in generator.moved_procs:
            a, b = find(p), find(proc[p])
            if a != b:
                if b < a:
                    a, b = b, a
                parent[b] = a
    return [find(p) for p in range(n_procs)]


def _classes(columns) -> list[int]:
    """Intern each column to the id of the first equal column."""
    seen: dict[tuple, int] = {}
    return [seen.setdefault(tuple(column), len(seen)) for column in columns]


class _SupportIndex:
    """Per-problem lookup tables for support-restricted verification."""

    def __init__(self, compiled, ends: list[frozenset[int]]) -> None:
        n_procs = compiled.n_procs
        n_links = compiled.n_links
        self.compiled = compiled
        self.by_ends = {link_ends: l for l, link_ends in enumerate(ends)}
        self.ends = ends
        link_ids, arc = compiled.link_ids, compiled.architecture
        self.incident = [
            [link_ids[link.name] for link in arc.links_of(name)]
            for name in compiled.proc_names
        ]
        exe = compiled.exe
        self.exe_class = _classes(exe[p::n_procs] for p in range(n_procs))
        rows = list(compiled.comm_rows.values())
        self.comm_class = _classes(zip(*rows) if rows else [()] * n_links)
        self._hops: dict[tuple[int, int], tuple] | None = None

    def _route_index(self):
        """All shortest routes in id form, indexed by touched proc/link."""
        if self._hops is None:
            compiled = self.compiled
            proc_ids = compiled.proc_ids
            self._hops = hops = {}
            self._by_proc = [[] for _ in range(compiled.n_procs)]
            self._by_link = [[] for _ in range(compiled.n_links)]
            for a in range(compiled.n_procs):
                for b in range(compiled.n_procs):
                    if a == b:
                        continue
                    pair = (a, b)
                    hops[pair] = route = tuple(
                        (proc_ids[origin], link, proc_ids[relay])
                        for origin, link, relay in compiled.route_hops(a, b)
                    )
                    for origin, link, relay in route:
                        self._by_proc[origin].append(pair)
                        self._by_proc[relay].append(pair)
                        self._by_link[link].append(pair)
        return self._hops, self._by_proc, self._by_link

    def verify(self, perm: tuple[int, ...]) -> Generator | None:
        """The generator of ``perm`` if every check passes on its support."""
        moved = [p for p, q in enumerate(perm) if p != q]
        exe_class = self.exe_class
        if any(exe_class[p] != exe_class[perm[p]] for p in moved):
            return None
        # Links off the support map to themselves, so the induced
        # permutation is a bijection as soon as every image exists.
        link_map: dict[int, int] = {}
        ends, by_ends, comm_class = self.ends, self.by_ends, self.comm_class
        for l in {l for p in moved for l in self.incident[p]}:
            target = by_ends.get(frozenset(perm[e] for e in ends[l]))
            if target is None or comm_class[l] != comm_class[target]:
                return None
            if target != l:
                link_map[l] = target
        hops, by_proc, by_link = self._route_index()
        touched = {key for p in moved for key in by_proc[p]}
        for l in link_map:
            touched.update(by_link[l])
        for a, b in touched:
            image = tuple(
                (perm[origin], link_map.get(link, link), perm[relay])
                for origin, link, relay in hops[a, b]
            )
            if image != hops[perm[a], perm[b]]:
                return None
        moved_links = tuple(sorted(link_map))
        generator = Generator(
            perm, tuple(moved), moved_links,
            tuple(link_map[l] for l in moved_links),
        )
        compiled = self.compiled
        if compiled.npl < 1 or _disjoint_equivariant(compiled, generator):
            return generator
        return None


def _disjoint_equivariant(compiled, generator: Generator) -> bool:
    """Every disjoint route set over every avoidance subset commutes
    (both sides infeasible counts); gated by ``_NPL_VERIFY_MAX_PROCS``."""
    perm = generator.proc
    link_of = dict(zip(generator.moved_links, generator.link_images))
    n_procs, names = compiled.n_procs, compiled.proc_names
    image_of = {name: names[perm[p]] for p, name in enumerate(names)}

    def routes(a: int, b: int, avoid):
        try:
            return compiled.disjoint_routes(
                names[a], names[b], frozenset(names[p] for p in avoid)
            )
        except ArchitectureError:  # fewer than npl + 1 routes
            return None

    for a in range(n_procs):
        for b in range(n_procs):
            if a == b:
                continue
            others = [p for p in range(n_procs) if p != a and p != b]
            for mask in range(1 << len(others)):
                avoid = [p for i, p in enumerate(others) if mask >> i & 1]
                found = routes(a, b, avoid)
                image = routes(perm[a], perm[b], [perm[p] for p in avoid])
                if (found is None) != (image is None):
                    return False
                if found is not None and image != tuple(
                    tuple(
                        (image_of[o], link_of.get(l, l), image_of[r])
                        for o, l, r in route
                    )
                    for route in found
                ):
                    return False
    return True


def build_symmetry(compiled) -> KernelSymmetry:
    """Detect and verify the automorphism generators of one problem.

    Candidate permutations: every transposition (generic orbit
    refinement — enough to generate the symmetric group on fully
    connected and bus interconnects and the leaf group of a star), plus
    the rotations and the reflection of a cycle (rings, where single
    transpositions are not automorphisms).  Each candidate is verified
    on its support; an empty generator tuple means "no usable symmetry".
    """
    n_procs = compiled.n_procs
    if compiled.pins or n_procs < 2:
        return KernelSymmetry((), n_procs)
    if compiled.npl >= 1 and n_procs > _NPL_VERIFY_MAX_PROCS:
        return KernelSymmetry((), n_procs)
    proc_ids = compiled.proc_ids
    ends = [
        frozenset(proc_ids[endpoint] for endpoint in link.endpoints)
        for link in compiled.architecture.links()
    ]
    if len(set(ends)) != len(ends):
        return KernelSymmetry((), n_procs)  # parallel links: name tie-breaks
    index = _SupportIndex(compiled, ends)
    candidates: list[tuple[int, ...]] = []
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
    generators = tuple(filter(None, map(index.verify, candidates)))
    return KernelSymmetry(generators, n_procs)
