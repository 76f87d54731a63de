"""Rebuild-per-query route-planning oracle.

The reference the production :class:`repro.hardware.routing.RoutePlanner`
is pinned against (``tests/test_routing_oracle.py``).  It answers
:meth:`menger_bound` and :meth:`disjoint_routes` the straightforward
way: every max-flow query builds the unit-capacity flow network from
the architecture afresh (``Link.sorted_endpoints()`` per link), and
every BFS expansion sorts its neighbour dict.  It keeps no memo, so it
is slow, and it is kept only as the oracle.

Network.  Processors are nodes ``0..P-1`` in sorted-name order; link
``i`` (sorted-name order) is an entry node ``P+2i`` and an exit node
``P+2i+1`` joined by a capacity-1 edge, so a bus is one capacity-1
resource however many processors it joins.  Augmenting paths are
shortest paths found by BFS in id order; the final flow is decomposed
by always following the smallest-id flow-carrying edge, and the routes
are sorted shortest first, link names breaking ties.

``count = 1`` is the production shortest route
(:meth:`~repro.hardware.architecture.Architecture.route_hops`), which
this oracle does not re-derive.
"""

from __future__ import annotations

from repro.exceptions import ArchitectureError
from repro.hardware.architecture import Architecture
from repro.hardware.routing import RouteHop


class OracleRoutePlanner:
    """Menger bounds and disjoint routes, one fresh network per query."""

    def __init__(self, architecture: Architecture) -> None:
        self._architecture = architecture
        #: Max-flow runs so far (one network build each).
        self.max_flows = 0

    def menger_bound(self, source: str, target: str) -> int:
        arc = self._architecture
        arc.processor(source)
        arc.processor(target)
        if source == target:
            return 0
        flow, _ = self._max_flow(source, target, limit=None)
        return flow

    def disjoint_routes(
        self,
        source: str,
        target: str,
        count: int,
        avoid: frozenset[str] = frozenset(),
    ) -> tuple[tuple[RouteHop, ...], ...]:
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
        if count == 1:
            return (arc.route_hops(source, target),)
        if avoid:
            flow, residual = self._max_flow(
                source, target, limit=count, blocked=avoid
            )
            if flow >= count:
                return self._decompose(source, target, count, residual)
        flow, residual = self._max_flow(source, target, limit=count)
        if flow < count:
            raise ArchitectureError(
                f"only {flow} link-disjoint route(s) exist from "
                f"{source!r} to {target!r}; {count} required "
                f"(tolerating Npl = {count - 1} link failure(s) needs "
                f"Npl + 1 disjoint routes)"
            )
        return self._decompose(source, target, count, residual)

    def _network(self):
        arc = self._architecture
        procs = arc.processor_names()
        links = arc.links()
        proc_id = {name: i for i, name in enumerate(procs)}
        n = len(procs) + 2 * len(links)
        capacity: list[dict[int, int]] = [dict() for _ in range(n)]
        for i, link in enumerate(links):
            entry = len(procs) + 2 * i
            exit_ = entry + 1
            capacity[entry][exit_] = 1
            capacity[exit_][entry] = 0
            for endpoint in link.sorted_endpoints():
                p = proc_id[endpoint]
                capacity[p][entry] = 1
                capacity[entry][p] = 0
                capacity[exit_][p] = 1
                capacity[p][exit_] = 0
        return procs, links, proc_id, capacity

    def _max_flow(self, source, target, limit, blocked=frozenset()):
        self.max_flows += 1
        procs, links, proc_id, capacity = self._network()
        for name in sorted(blocked):
            node = proc_id.get(name)
            if node is None or name in (source, target):
                continue
            for neighbor in capacity[node]:
                capacity[node][neighbor] = 0
        src, dst = proc_id[source], proc_id[target]
        flow = 0
        while limit is None or flow < limit:
            parent = self._augmenting_path(capacity, src, dst)
            if parent is None:
                break
            node = dst
            while node != src:
                prev = parent[node]
                capacity[prev][node] -= 1
                capacity[node][prev] += 1
                node = prev
            flow += 1
        return flow, (procs, links, proc_id, capacity)

    @staticmethod
    def _augmenting_path(capacity, src, dst):
        parent: dict[int, int] = {src: src}
        frontier = [src]
        while frontier:
            next_frontier: list[int] = []
            for here in frontier:
                for neighbor in sorted(capacity[here]):
                    if neighbor in parent or capacity[here][neighbor] <= 0:
                        continue
                    parent[neighbor] = here
                    if neighbor == dst:
                        return parent
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return None

    def _decompose(self, source, target, count, network):
        procs, links, proc_id, capacity = network
        n_procs = len(procs)
        used: list[set[int]] = [set() for _ in range(len(capacity))]
        for i, link in enumerate(links):
            entry = n_procs + 2 * i
            exit_ = entry + 1
            if capacity[entry][exit_] == 0:
                used[entry].add(exit_)
            for endpoint in link.sorted_endpoints():
                p = proc_id[endpoint]
                if capacity[p][entry] == 0:
                    used[p].add(entry)
                if capacity[exit_][p] == 0:
                    used[exit_].add(p)
        src, dst = proc_id[source], proc_id[target]
        routes: list[tuple[RouteHop, ...]] = []
        for _ in range(count):
            sequence = [src]
            node = src
            while node != dst:
                nxt = min(used[node])
                used[node].discard(nxt)
                sequence.append(nxt)
                node = nxt
            routes.append(_hops_from_sequence(sequence, procs, links, n_procs))
        routes.sort(key=lambda r: (len(r), tuple(hop[1].name for hop in r)))
        return tuple(routes)


def _hops_from_sequence(sequence, procs, links, n_procs) -> tuple[RouteHop, ...]:
    visits: list[tuple[str, object]] = []
    for node in sequence:
        if node < n_procs:
            visits.append(("proc", procs[node]))
        elif (node - n_procs) % 2 == 0:
            visits.append(("link", links[(node - n_procs) // 2]))
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
    return tuple(
        (trimmed[i][1], trimmed[i + 1][1], trimmed[i + 2][1])
        for i in range(0, len(trimmed) - 2, 2)
    )
