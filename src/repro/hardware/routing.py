"""Disjoint-route planning over the architecture graph.

The paper schedules every inter-processor transfer on one shortest
route; masking ``Npl`` link failures additionally requires ``Npl + 1``
pairwise *link-disjoint* routes per communicating processor pair (one
copy of the data per route — any ``Npl`` broken links leave at least one
copy's route intact).  :class:`RoutePlanner` is the single routing entry
point of the repo:

* :meth:`shortest_route` / :meth:`route_hops` — the deterministic BFS
  shortest route the original engine used (fewest hops, lexicographically
  smallest link-name sequence among ties);
* :meth:`menger_bound` — the maximum number of pairwise link-disjoint
  routes between two processors (Menger's theorem: the size of a minimum
  link cut), computed as a unit-capacity max-flow where every link —
  point-to-point or bus — is one capacity-1 resource;
* :meth:`disjoint_routes` — ``count`` pairwise link-disjoint routes in
  hop form, deterministic across runs, raising a clear
  :class:`~repro.exceptions.ArchitectureError` when ``count`` exceeds
  the Menger bound.

``disjoint_routes(source, target, 1)`` returns exactly the legacy
shortest route, which is what keeps ``npl = 0`` scheduling bit-identical
to the pre-link-tolerance engine.

Determinism.  The flow network enumerates processors and links in
sorted-name order, augmenting paths are found by BFS expanding
neighbours in that order (shortest augmenting path first, smallest name
sequence among ties), and the final flow is decomposed by always
following the smallest-id flow-carrying edge — so the same architecture
always yields the same routes in the same order.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING

from repro import obs
from repro.exceptions import ArchitectureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.architecture import Architecture
    from repro.hardware.link import Link

#: ``(from_processor, link, to_processor)`` — one hop of a route.
RouteHop = tuple[str, "Link", str]

#: Process-wide planning counters: max-flow runs, flow networks built
#: (one per planner that ran a max flow) and disjoint-route / Menger
#: queries answered from a planner's memo.
_STATS = {"max_flows": 0, "network_builds": 0, "memo_hits": 0}


def routing_stats() -> dict[str, int]:
    """The route-planning counters (cumulative over the process)."""
    return dict(_STATS)


obs.metrics.register_collector("routing", routing_stats)


class _FlowNetwork:
    """The unit-capacity flow network of one architecture.

    Node ids: processors ``0..P-1`` in sorted-name order, then per link
    ``i`` (sorted-name order) an entry node ``P+2i`` and an exit node
    ``P+2i+1``.  The entry->exit edge carries the link's capacity of 1,
    and every endpoint ``p`` has the edges ``p->entry`` and ``exit->p``
    of capacity 1.  Every capacity is 0 or 1, so a residual graph is one
    list per node of the neighbours it can still push a unit to.

    Built once per planner — the architecture drops its planner on every
    structural change — so a query starts from :attr:`residual` and
    copies only the rows its augmenting paths change.
    """

    __slots__ = ("procs", "links", "proc_id", "residual", "forward")

    def __init__(self, architecture: "Architecture") -> None:
        self.procs = architecture.processor_names()
        self.links = architecture.links()
        self.proc_id = proc_id = {name: i for i, name in enumerate(self.procs)}
        n_procs = len(self.procs)
        targets: list[list[int]] = [[] for _ in range(n_procs + 2 * len(self.links))]
        for i, link in enumerate(self.links):
            entry = n_procs + 2 * i
            exit_ = entry + 1
            targets[entry].append(exit_)
            for endpoint in link.endpoints:
                p = proc_id[endpoint]
                targets[p].append(entry)
                targets[exit_].append(p)
        #: The empty flow's residual graph: per node, the heads of its
        #: capacity-1 edges in id order (the BFS expansion order).
        self.residual = [tuple(sorted(row)) for row in targets]
        #: Per node, the heads of its capacity-1 edges as a set.
        self.forward = [frozenset(row) for row in targets]


class RoutePlanner:
    """Computes shortest and link-disjoint routes for one architecture.

    Built lazily by :class:`~repro.hardware.architecture.Architecture`
    and invalidated whenever a processor or link is added; all results
    are memoized per ``(source, target)`` pair (and route count), and
    the flow network behind the disjoint routes is built on the first
    max-flow query.
    """

    def __init__(self, architecture: "Architecture") -> None:
        self._architecture = architecture
        self._network: _FlowNetwork | None = None
        self._routes: dict[tuple[str, str], tuple["Link", ...]] = {}
        self._disjoint: dict[tuple[str, str, int], tuple[tuple[RouteHop, ...], ...]] = {}
        self._bounds: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # shortest route (the legacy BFS, moved here verbatim)
    # ------------------------------------------------------------------
    def shortest_route(self, source: str, target: str) -> tuple["Link", ...]:
        """Fewest-hop link sequence, lexicographically smallest among ties."""
        arc = self._architecture
        arc.processor(source)
        arc.processor(target)
        if source == target:
            return ()
        cached = self._routes.get((source, target))
        if cached is not None:
            return cached
        route = self._compute_route(source, target)
        self._routes[(source, target)] = route
        return route

    def _compute_route(self, source: str, target: str) -> tuple["Link", ...]:
        # BFS over processors, expanding neighbours in sorted (processor,
        # link) order so the first route found is the deterministic winner.
        arc = self._architecture
        parents: dict[str, tuple[str, "Link"]] = {}
        frontier = [source]
        seen = {source}
        while frontier:
            next_frontier: list[str] = []
            for here in frontier:
                for link in arc.links_of(here):
                    for neighbor in link.sorted_endpoints():
                        if neighbor == here or neighbor in seen:
                            continue
                        seen.add(neighbor)
                        parents[neighbor] = (here, link)
                        next_frontier.append(neighbor)
            if target in seen:
                break
            frontier = sorted(next_frontier)
        if target not in parents:
            raise ArchitectureError(f"no route from {source!r} to {target!r}")
        hops: list["Link"] = []
        cursor = target
        while cursor != source:
            cursor, link = parents[cursor]
            hops.append(link)
        return tuple(reversed(hops))

    def route_hops(self, source: str, target: str) -> tuple[RouteHop, ...]:
        """The shortest route as ``(from, link, to)`` hops."""
        links = self.shortest_route(source, target)
        hops: list[RouteHop] = []
        here = source
        # Recompute the node sequence by walking the links: each link of a
        # BFS shortest route moves strictly closer to the target, and the
        # next node is the unique endpoint that continues the route.
        for index, link in enumerate(links):
            if index == len(links) - 1:
                nxt = target
            else:
                candidates = [e for e in link.sorted_endpoints() if e != here]
                nxt = None
                for candidate in candidates:
                    tail = self.shortest_route(candidate, target)
                    if len(tail) == len(links) - index - 1:
                        nxt = candidate
                        break
                if nxt is None:  # pragma: no cover - defensive
                    raise ArchitectureError(
                        f"cannot reconstruct route {source!r}->{target!r}"
                    )
            hops.append((here, link, nxt))
            here = nxt
        return tuple(hops)

    # ------------------------------------------------------------------
    # link-disjoint routes (unit-capacity max-flow)
    # ------------------------------------------------------------------
    def menger_bound(self, source: str, target: str) -> int:
        """Maximum number of pairwise link-disjoint routes (Menger).

        A bus counts as a *single* capacity-1 resource regardless of how
        many processor pairs it connects: one broken bus severs every
        route through it, so two routes sharing a bus are not disjoint.
        Returns 0 when the processors are disconnected; the bound of a
        processor to itself is reported as 0 (no route needed).
        """
        arc = self._architecture
        arc.processor(source)
        arc.processor(target)
        if source == target:
            return 0
        cached = self._bounds.get((source, target))
        if cached is not None:
            _STATS["memo_hits"] += 1
            return cached
        flow, _ = self._max_flow(source, target, limit=None)
        self._bounds[(source, target)] = flow
        return flow

    def disjoint_routes(
        self,
        source: str,
        target: str,
        count: int,
        avoid: frozenset[str] = frozenset(),
    ) -> tuple[tuple[RouteHop, ...], ...]:
        """``count`` pairwise link-disjoint routes in deterministic order.

        ``count = 1`` returns exactly the legacy shortest route.  Raises
        :class:`~repro.exceptions.ArchitectureError` with the achievable
        bound when ``count`` routes do not exist — the actionable error
        an ``Npl`` hypothesis too strong for the topology must produce.

        ``avoid`` is a *preference*: processors that should not act as
        relays if ``count`` disjoint routes exist without them (the
        replication layer passes the hosts of the other sender replicas,
        so a single crash cannot take out both a sender and another
        sender's relay).  When avoiding them leaves fewer than ``count``
        routes, the full graph is used — a preference, never a reason to
        fail.
        """
        if count < 1:
            raise ArchitectureError(f"route count must be >= 1, got {count}")
        arc = self._architecture
        arc.processor(source)
        arc.processor(target)
        if source == target:
            raise ArchitectureError(
                f"no routes needed from {source!r} to itself"
            )
        avoid = frozenset(avoid) - {source, target}
        key = (source, target, count, avoid)
        cached = self._disjoint.get(key)
        if cached is not None:
            _STATS["memo_hits"] += 1
            return cached
        if count == 1:
            routes: tuple[tuple[RouteHop, ...], ...] = (self.route_hops(source, target),)
        else:
            routes = None
            if avoid:
                flow, residual = self._max_flow(
                    source, target, limit=count, blocked=avoid
                )
                if flow >= count:
                    routes = self._decompose(source, target, count, residual)
            if routes is None:
                flow, residual = self._max_flow(source, target, limit=count)
                if flow < count:
                    # Stopping short of ``count`` means no augmenting path
                    # was left, so ``flow`` is the true Menger bound.
                    self._bounds.setdefault((source, target), flow)
                    raise ArchitectureError(
                        f"only {flow} link-disjoint route(s) exist from "
                        f"{source!r} to {target!r}; {count} required "
                        f"(tolerating Npl = {count - 1} link failure(s) needs "
                        f"Npl + 1 disjoint routes)"
                    )
                routes = self._decompose(source, target, count, residual)
        self._disjoint[key] = routes
        return routes

    # -- flow network ---------------------------------------------------
    def _flow_network(self) -> "_FlowNetwork":
        network = self._network
        if network is None:
            network = self._network = _FlowNetwork(self._architecture)
            _STATS["network_builds"] += 1
        return network

    def _max_flow(
        self,
        source: str,
        target: str,
        limit: int | None,
        blocked: frozenset[str] = frozenset(),
    ) -> tuple[int, dict[int, set[int]]]:
        """Edmonds-Karp with deterministic BFS; returns (flow, flow edges).

        ``blocked`` processors cannot act as relays: their outgoing
        transit edges are removed (the terminals are never blocked).
        The flow edges map a node to the heads of its capacity-1 edges
        that carry flow.
        """
        network = self._flow_network()
        _STATS["max_flows"] += 1
        # Rows are shared tuples until an augmenting path changes them.
        residual: list = list(network.residual)
        proc_id = network.proc_id
        for name in blocked:
            node = proc_id.get(name)
            if node is not None and name != source and name != target:
                residual[node] = ()
        forward = network.forward
        carrying: dict[int, set[int]] = {}
        src, dst = proc_id[source], proc_id[target]
        flow = 0
        while limit is None or flow < limit:
            parent = self._augmenting_path(residual, src, dst)
            if parent is None:
                break
            node = dst
            while node != src:
                prev = parent[node]
                # prev->node is used up; node->prev can now push back.
                row = residual[prev]
                if type(row) is tuple:
                    row = residual[prev] = list(row)
                row.remove(node)
                row = residual[node]
                if type(row) is tuple:
                    row = residual[node] = list(row)
                insort(row, prev)
                if node in forward[prev]:
                    carrying.setdefault(prev, set()).add(node)
                else:  # pushed back along a flow-carrying node->prev
                    carrying[node].discard(prev)
                node = prev
            flow += 1
        return flow, carrying

    @staticmethod
    def _augmenting_path(residual, src: int, dst: int):
        """Shortest augmenting path by BFS in deterministic id order."""
        parent = [-1] * len(residual)
        parent[src] = src
        frontier = [src]
        while frontier:
            next_frontier: list[int] = []
            for here in frontier:
                for neighbor in residual[here]:
                    if parent[neighbor] < 0:
                        parent[neighbor] = here
                        if neighbor == dst:
                            return parent
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def _decompose(
        self, source: str, target: str, count: int, carrying: dict[int, set[int]]
    ) -> tuple[tuple[RouteHop, ...], ...]:
        """Split a flow of value ``count`` into ``count`` hop paths."""
        network = self._flow_network()
        procs, links, proc_id = network.procs, network.links, network.proc_id
        n_procs = len(procs)
        src, dst = proc_id[source], proc_id[target]
        routes: list[tuple[RouteHop, ...]] = []
        for _ in range(count):
            # Walk flow-carrying edges, smallest id first; consume them.
            sequence = [src]
            node = src
            while node != dst:
                used = carrying[node]
                nxt = min(used)
                used.discard(nxt)
                sequence.append(nxt)
                node = nxt
            routes.append(self._hops_from_sequence(sequence, procs, links, n_procs))
        # Shortest first; link-name sequence breaks ties deterministically.
        routes.sort(key=lambda r: (len(r), tuple(hop[1].name for hop in r)))
        return tuple(routes)

    @staticmethod
    def _hops_from_sequence(sequence, procs, links, n_procs) -> tuple[RouteHop, ...]:
        """Processor/link node walk -> (from, link, to) hops, loops removed."""
        # Project onto alternating processor / link visits.
        visits: list[tuple[str, object]] = []  # ("proc", name) | ("link", Link)
        for node in sequence:
            if node < n_procs:
                visits.append(("proc", procs[node]))
            elif (node - n_procs) % 2 == 0:
                visits.append(("link", links[(node - n_procs) // 2]))
        # Remove loops on repeated processors (a flow decomposition may
        # pick up a cycle of leftover flow; cutting it only drops links,
        # so disjointness is preserved).
        trimmed: list[tuple[str, object]] = []
        seen_at: dict[str, int] = {}
        for visit in visits:
            if visit[0] == "proc":
                earlier = seen_at.get(visit[1])
                if earlier is not None:
                    for dropped in trimmed[earlier + 1:]:
                        if dropped[0] == "proc":
                            del seen_at[dropped[1]]
                    del trimmed[earlier + 1:]
                    continue
                seen_at[visit[1]] = len(trimmed)
            trimmed.append(visit)
        hops: list[RouteHop] = []
        for i in range(0, len(trimmed) - 2, 2):
            here = trimmed[i][1]
            link = trimmed[i + 1][1]
            there = trimmed[i + 2][1]
            hops.append((here, link, there))
        return tuple(hops)

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def require_disjoint_routes(self, count: int) -> None:
        """Raise unless every distinct processor pair has ``count`` routes.

        The static guarantee of ``Npl``-link-failure masking needs
        ``Npl + 1`` disjoint routes wherever replication may place
        communicating replicas — which, absent distribution constraints,
        is any processor pair.
        """
        names = self._architecture.processor_names()
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                self.disjoint_routes(first, second, count)
