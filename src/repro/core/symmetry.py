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
  ``g``, not just the route lengths.  A pair joined by exactly one
  direct link routes over that link, and the link map already sends it
  to the one direct link of the image pair, so only the other pairs
  are routed and checked,
* for ``npl >= 1``, the same equivariance for every ``npl + 1``-route
  disjoint set over every avoidance subset (enumerable because the
  check is gated to small processor counts).

Every check is closed under composition, so the verified permutations
generate only verified permutations.  In particular the transpositions
that pass form an equivalence relation on processors — ``(i k) =
(i j)(j k)(i j)`` — and are kept as *classes*: each processor is checked
against the current class representatives only, one transposition per
processor on a homogeneous interconnect instead of one per pair.

Anything that breaks bit-exactness wholesale — memory pins, parallel
direct links (whose min-end tie-break reads link *names*) — disables
the group entirely.  The *dynamic* half (is the partial schedule still
invariant under ``g``?) is the kernel's per-sweep aliveness check.
"""

from __future__ import annotations

from repro._record import FrozenRecord
from repro.exceptions import ArchitectureError

#: With link replication the verification enumerates avoidance subsets,
#: which is exponential in the processor count; past this size the
#: group is simply not built.
_NPL_VERIFY_MAX_PROCS = 6


class Generator(FrozenRecord):
    """A verified processor permutation and its sparse induced link
    permutation: ``moved_links[i]`` (ascending) maps to ``link_images[i]``
    and every other link is fixed."""

    _fields = ("proc", "moved_procs", "moved_links", "link_images")

    def __init__(
        self,
        proc: tuple[int, ...],
        moved_procs: tuple[int, ...],
        moved_links: tuple[int, ...],
        link_images: tuple[int, ...],
    ) -> None:
        self.__dict__.update(
            proc=proc,
            moved_procs=moved_procs,
            moved_links=moved_links,
            link_images=link_images,
        )


def _swap(n_procs: int, a: int, b: int) -> tuple[int, ...]:
    perm = list(range(n_procs))
    perm[a], perm[b] = b, a
    return tuple(perm)


class _Links:
    """Endpoint tables of one interconnect, for induced link maps.

    A point-to-point link's image is one lookup in a (proc, proc) → link
    table; only buses fall back to an endpoint-set lookup.
    """

    def __init__(self, compiled, ends: list[frozenset[int]]) -> None:
        n_procs = compiled.n_procs
        self.n_procs = n_procs
        self.ends = ends
        self.by_ends = {link_ends: l for l, link_ends in enumerate(ends)}
        link_ids, arc = compiled.link_ids, compiled.architecture
        self.incident = [
            [link_ids[link.name] for link in arc.links_of(name)]
            for name in compiled.proc_names
        ]
        self.pair_ends: list[tuple[int, int] | None] = [None] * len(ends)
        self.pair = [-1] * (n_procs * n_procs)
        for l, link_ends in enumerate(ends):
            if len(link_ends) == 2:
                a, b = sorted(link_ends)
                self.pair_ends[l] = (a, b)
                self.pair[a * n_procs + b] = self.pair[b * n_procs + a] = l

    def image(self, l: int, perm) -> int:
        """The link whose endpoints are ``perm`` of ``l``'s (-1: none)."""
        pair = self.pair_ends[l]
        if pair is not None:
            return self.pair[perm[pair[0]] * self.n_procs + perm[pair[1]]]
        return self.by_ends.get(frozenset(perm[p] for p in self.ends[l]), -1)


class _GeneratorView(FrozenRecord):
    """Every verified generator, in candidate order: the transpositions
    ``(i j)``, ``i < j``, lexicographically, then the other generators.

    ``len()`` counts; only iteration builds :class:`Generator` objects.
    """

    _fields = ("group",)

    def __init__(self, group: "KernelSymmetry") -> None:
        self.__dict__["group"] = group

    def __len__(self) -> int:
        return (
            sum(len(c) * (len(c) - 1) // 2 for c in self.group.classes)
            + len(self.group.others)
        )

    def __iter__(self):
        group = self.group
        class_of = {p: members for members in group.classes for p in members}
        for a in range(group.n_procs):
            for b in class_of.get(a, ()):
                if b > a:
                    yield group.transposition(a, b)
        yield from group.others


class KernelSymmetry:
    """The verified automorphisms of one compiled problem.

    ``classes`` are the processor classes of the verified transpositions
    (ascending tuples, singletons left out): ``(i j)`` is verified
    exactly when ``i`` and ``j`` share a class.  ``others`` are the
    verified generators that are not transpositions (a ring's rotation
    and reflection).  ``verifications`` counts the candidate
    permutations checked while building.
    """

    __slots__ = ("n_procs", "classes", "others", "verifications", "_links",
                 "_swaps")

    def __init__(
        self,
        n_procs: int,
        classes: tuple[tuple[int, ...], ...] = (),
        others: tuple[Generator, ...] = (),
        verifications: int = 0,
        links: _Links | None = None,
    ) -> None:
        self.n_procs = n_procs
        self.classes = classes
        self.others = others
        self.verifications = verifications
        self._links = links
        self._swaps: dict[tuple[int, int], tuple[tuple, tuple]] = {}

    @property
    def generators(self) -> _GeneratorView:
        """Every verified generator (see :class:`_GeneratorView`)."""
        return _GeneratorView(self)

    def orbit_count(self) -> int:
        """Number of processor orbits under the full verified group."""
        return len(set(orbit_representatives(
            self.n_procs, self.classes, self.others
        )))

    def swap_links(self, a: int, b: int) -> tuple[tuple, tuple]:
        """``(moved, images)``: every link at ``a`` that the verified
        transposition ``(a b)`` moves, and its image — each link 2-cycle
        of ``(a b)`` once.

        Memoized as two flat tuples (a kernel asks for a few hundred
        pairs at P=32); the group is shared read-only otherwise.
        """
        swapped = self._swaps.get((a, b))
        if swapped is None:
            links = self._links
            perm = _swap(self.n_procs, a, b)
            moved = tuple(
                l for l in links.incident[a] if b not in links.ends[l]
            )
            swapped = moved, tuple(links.image(l, perm) for l in moved)
            self._swaps[a, b] = swapped
        return swapped

    def transposition(self, a: int, b: int) -> Generator:
        """The :class:`Generator` of the verified transposition ``(a b)``."""
        link_map = {}
        for l, m in zip(*self.swap_links(a, b)):
            link_map[l], link_map[m] = m, l
        moved_links = tuple(sorted(link_map))
        return Generator(
            _swap(self.n_procs, a, b), (a, b), moved_links,
            tuple(link_map[l] for l in moved_links),
        )


def orbit_representatives(
    n_procs: int,
    classes=(),
    generators=(),
) -> list[int]:
    """``rep[p]`` = smallest processor id in ``p``'s orbit.

    Each transposition class joins its members under its minimum, then
    plain union-find merges the generator edges ``p — g(p)`` of the
    moved points; the smallest-id representative is what makes pruning
    pick the same processor the exhaustive argmin/argmax tie-breaks
    would (ties resolve to the lowest id, and every orbit member carries
    an equal value).
    """
    parent = list(range(n_procs))
    for members in classes:
        for p in members[1:]:
            parent[p] = members[0]

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

    def __init__(self, compiled, links: _Links) -> None:
        n_procs = compiled.n_procs
        self.compiled = compiled
        self.links = links
        exe = compiled.exe
        self.exe_class = _classes(exe[p::n_procs] for p in range(n_procs))
        rows = list(compiled.comm_rows.values())
        self.comm_class = _classes(
            zip(*rows) if rows else [()] * compiled.n_links
        )
        self.verifications = 0
        self._hops: dict[tuple[int, int], tuple] | None = None

    def _route_index(self):
        """The shortest routes of every pair not joined by exactly one
        direct link, in id form, indexed by touched proc/link."""
        if self._hops is None:
            compiled = self.compiled
            n_procs = compiled.n_procs
            proc_ids, direct = compiled.proc_ids, compiled.direct
            self._hops = hops = {}
            self._by_proc = [[] for _ in range(n_procs)]
            self._by_link = [[] for _ in range(compiled.n_links)]
            for a in range(n_procs):
                for b in range(n_procs):
                    if a == b or len(direct[a * n_procs + b]) == 1:
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
        self.verifications += 1
        moved = [p for p, q in enumerate(perm) if p != q]
        exe_class = self.exe_class
        if any(exe_class[p] != exe_class[perm[p]] for p in moved):
            return None
        # Links off the support map to themselves, so the induced
        # permutation is a bijection as soon as every image exists.
        link_map: dict[int, int] = {}
        links, comm_class = self.links, self.comm_class
        for l in {l for p in moved for l in links.incident[p]}:
            target = links.image(l, perm)
            if target < 0 or comm_class[l] != comm_class[target]:
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
    """Detect and verify the automorphisms of one problem.

    Transpositions are verified class by class: processor ``j`` is
    checked against each current class representative ``r`` (the class
    minimum) and joins the first class whose ``(r j)`` passes, else it
    starts a new class.  That is exact because the passing
    transpositions form an equivalence relation (see the module
    docstring), and it checks P - 1 transpositions on a homogeneous
    fully connected or bus interconnect (2P - 3 on a star) instead of
    P(P - 1)/2.  The
    rotation and the reflection of a cycle (rings, where single
    transpositions are not automorphisms) are verified on their own; an
    empty group means "no usable symmetry".
    """
    n_procs = compiled.n_procs
    if compiled.pins or n_procs < 2:
        return KernelSymmetry(n_procs)
    if compiled.npl >= 1 and n_procs > _NPL_VERIFY_MAX_PROCS:
        return KernelSymmetry(n_procs)
    proc_ids = compiled.proc_ids
    ends = [
        frozenset(proc_ids[endpoint] for endpoint in link.endpoints)
        for link in compiled.architecture.links()
    ]
    if len(set(ends)) != len(ends):
        return KernelSymmetry(n_procs)  # parallel links: name tie-breaks
    links = _Links(compiled, ends)
    index = _SupportIndex(compiled, links)
    members: list[list[int]] = []
    for j in range(n_procs):
        for cls in members:
            if index.verify(_swap(n_procs, cls[0], j)) is not None:
                cls.append(j)
                break
        else:
            members.append([j])
    candidates = [tuple((p + 1) % n_procs for p in range(n_procs))]
    reflection = tuple((n_procs - p) % n_procs for p in range(n_procs))
    if sum(p != q for p, q in enumerate(reflection)) != 2:
        candidates.append(reflection)  # not already a transposition
    return KernelSymmetry(
        n_procs,
        tuple(tuple(cls) for cls in members if len(cls) > 1),
        tuple(filter(None, map(index.verify, candidates))),
        index.verifications,
        links,
    )
