"""The architecture model: processors connected by communication links.

Section 3.3 models the architecture as a graph whose vertices are
processors and whose edges are communication links.  We additionally
provide multi-hop routing (shortest path in number of hops) so that
architectures that are not fully connected can still be scheduled; the
paper's fault-tolerance guarantee, however, is argued for *direct* links
between replica processors, and the schedule validator can enforce that.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.exceptions import ArchitectureError
from repro.hardware.link import Link, LinkKind
from repro.hardware.processor import Processor
from repro.hardware.routing import RouteHop, RoutePlanner


class Architecture:
    """A set of :class:`Processor` connected by :class:`Link` media.

    Examples
    --------
    >>> arc = Architecture()
    >>> _ = arc.add_processor("P1"); _ = arc.add_processor("P2")
    >>> _ = arc.add_link("L1.2", ["P1", "P2"])
    >>> [l.name for l in arc.links_between("P1", "P2")]
    ['L1.2']
    """

    def __init__(self, name: str = "architecture") -> None:
        self.name = name
        self._processors: dict[str, Processor] = {}
        self._links: dict[str, Link] = {}
        self._planner: RoutePlanner | None = None
        # Memoized views; the scheduler calls these once per trial plan,
        # so rebuilding them from the dicts each time shows up in E6.
        self._links_view: tuple[Link, ...] | None = None
        self._link_names_view: tuple[str, ...] | None = None
        self._processor_names_view: tuple[str, ...] | None = None
        #: Endpoint-pair -> links and processor -> incident links,
        #: both in sorted-name order; built together on first use.
        self._between: dict[tuple[str, str], tuple[Link, ...]] | None = None
        self._incident: dict[str, tuple[Link, ...]] | None = None
        #: Bumped by every mutation; lets derived-table caches (the
        #: compiled kernel's content hashes) revalidate in O(1).
        self._version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_processor(self, processor: Processor | str) -> Processor:
        """Add a processor (idempotent for identical names)."""
        proc = processor if isinstance(processor, Processor) else Processor(str(processor))
        existing = self._processors.get(proc.name)
        if existing is not None:
            return existing
        self._processors[proc.name] = proc
        self._planner = None
        self._between = self._incident = None
        self._processor_names_view = None
        self._version += 1
        return proc

    def add_link(
        self,
        link: Link | str,
        endpoints: Iterable[str] | None = None,
        kind: LinkKind | str | None = None,
    ) -> Link:
        """Add a communication link between existing processors.

        Either pass a ready-made :class:`Link`, or a name plus
        ``endpoints`` (and optionally ``kind``, inferred as point-to-point
        for two endpoints and bus otherwise).
        """
        if isinstance(link, Link):
            built = link
        else:
            if endpoints is None:
                raise ArchitectureError("endpoints required when adding a link by name")
            points = tuple(endpoints)
            if kind is None:
                inferred = LinkKind.POINT_TO_POINT if len(set(points)) == 2 else LinkKind.BUS
            else:
                inferred = LinkKind(kind)
            built = Link(str(link), frozenset(points), inferred)
        for endpoint in built.endpoints:
            if endpoint not in self._processors:
                raise ArchitectureError(
                    f"link {built.name!r} references unknown processor {endpoint!r}"
                )
        if built.name in self._links:
            raise ArchitectureError(f"duplicate link name {built.name!r}")
        self._links[built.name] = built
        self._planner = None
        self._links_view = None
        self._link_names_view = None
        self._between = self._incident = None
        self._version += 1
        return built

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._processors

    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self) -> Iterator[str]:
        return iter(self.processor_names())

    def processor(self, name: str) -> Processor:
        """The processor registered under ``name``."""
        try:
            return self._processors[name]
        except KeyError:
            raise ArchitectureError(f"unknown processor {name!r}") from None

    def processor_names(self) -> tuple[str, ...]:
        """All processor names, sorted for determinism."""
        if self._processor_names_view is None:
            self._processor_names_view = tuple(sorted(self._processors))
        return self._processor_names_view

    def processors(self) -> tuple[Processor, ...]:
        """All processors, sorted by name."""
        return tuple(self._processors[n] for n in self.processor_names())

    def link(self, name: str) -> Link:
        """The link registered under ``name``."""
        try:
            return self._links[name]
        except KeyError:
            raise ArchitectureError(f"unknown link {name!r}") from None

    def link_names(self) -> tuple[str, ...]:
        """All link names, sorted for determinism."""
        if self._link_names_view is None:
            self._link_names_view = tuple(sorted(self._links))
        return self._link_names_view

    def links(self) -> tuple[Link, ...]:
        """All links, sorted by name."""
        if self._links_view is None:
            self._links_view = tuple(self._links[n] for n in self.link_names())
        return self._links_view

    def _link_index(self) -> None:
        """One pass over the links builds both adjacency indexes."""
        between: dict[tuple[str, str], list[Link]] = {}
        incident: dict[str, list[Link]] = {name: [] for name in self._processors}
        for link in self.links():
            ends = link.sorted_endpoints()
            for first in ends:
                incident[first].append(link)
                for second in ends:
                    if first != second:
                        between.setdefault((first, second), []).append(link)
        self._between = {pair: tuple(ls) for pair, ls in between.items()}
        self._incident = {name: tuple(ls) for name, ls in incident.items()}

    def links_of(self, processor: str) -> tuple[Link, ...]:
        """Links on which ``processor`` has a communication unit."""
        if self._incident is None:
            self._link_index()
        try:
            return self._incident[processor]
        except KeyError:
            raise ArchitectureError(f"unknown processor {processor!r}") from None

    def links_between(self, first: str, second: str) -> tuple[Link, ...]:
        """All direct links joining two distinct processors, sorted."""
        if self._between is None:
            self._link_index()
        links = self._between.get((first, second))
        if links is None:
            self.processor(first)
            self.processor(second)
            return ()
        return links

    def neighbors(self, processor: str) -> tuple[str, ...]:
        """Processors directly reachable from ``processor``."""
        reachable: set[str] = set()
        for link in self.links_of(processor):
            reachable.update(link.endpoints)
        reachable.discard(processor)
        return tuple(sorted(reachable))

    def is_fully_connected(self) -> bool:
        """True when every processor pair has a direct link."""
        names = self.processor_names()
        return all(
            self.links_between(a, b)
            for i, a in enumerate(names)
            for b in names[i + 1:]
        )

    # ------------------------------------------------------------------
    # routing (delegated to the RoutePlanner, the single entry point)
    # ------------------------------------------------------------------
    @property
    def route_planner(self) -> RoutePlanner:
        """The memoizing route planner bound to this architecture.

        Rebuilt lazily after every structural change; all routing
        queries — shortest routes, Menger bounds, disjoint route sets —
        go through this one object.
        """
        if self._planner is None:
            self._planner = RoutePlanner(self)
        return self._planner

    def route(self, source: str, target: str) -> tuple[Link, ...]:
        """A shortest (fewest hops) sequence of links from source to target.

        Returns the empty tuple for ``source == target``.  Direct links
        win; among equal-length routes the lexicographically smallest
        link-name sequence is chosen, which keeps scheduling reproducible.
        Raises :class:`~repro.exceptions.ArchitectureError` when no route
        exists.
        """
        self.processor(source)
        self.processor(target)
        if source == target:
            return ()
        return self.route_planner.shortest_route(source, target)

    def route_hops(self, source: str, target: str) -> tuple[RouteHop, ...]:
        """The shortest route as ``(from_processor, link, to_processor)`` hops.

        Multi-hop communications need the relay processors, not just the
        links; this returns both.  Empty for ``source == target``.
        """
        if source == target:
            self.processor(source)
            return ()
        return self.route_planner.route_hops(source, target)

    def disjoint_route_hops(
        self, source: str, target: str, count: int
    ) -> tuple[tuple[RouteHop, ...], ...]:
        """``count`` pairwise link-disjoint routes in hop form.

        ``count = 1`` is exactly :meth:`route_hops`; see
        :meth:`repro.hardware.routing.RoutePlanner.disjoint_routes`.
        """
        return self.route_planner.disjoint_routes(source, target, count)

    def menger_bound(self, source: str, target: str) -> int:
        """Maximum number of pairwise link-disjoint routes (min link cut)."""
        return self.route_planner.menger_bound(source, target)

    def hop_count(self, source: str, target: str) -> int:
        """Number of links on the shortest route between two processors."""
        return len(self.route(source, target))

    # ------------------------------------------------------------------
    # validation / export
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants: non-empty and connected."""
        if not self._processors:
            raise ArchitectureError(f"architecture {self.name!r} has no processor")
        if len(self._processors) == 1:
            return
        names = self.processor_names()
        root = names[0]
        for other in names[1:]:
            try:
                self.route(root, other)
            except ArchitectureError:
                raise ArchitectureError(
                    f"architecture {self.name!r} is disconnected: "
                    f"no route from {root!r} to {other!r}"
                ) from None

    def to_networkx(self) -> Any:
        """A multigraph view: processor nodes, one edge per link pair.

        Returns a :class:`networkx.MultiGraph` (needs networkx).
        """
        import networkx as nx

        graph = nx.MultiGraph(name=self.name)
        graph.add_nodes_from(self.processor_names())
        for link in self.links():
            ends = link.sorted_endpoints()
            for i, a in enumerate(ends):
                for b in ends[i + 1:]:
                    graph.add_edge(a, b, key=link.name, link=link.name, kind=link.kind.value)
        return graph

    def __repr__(self) -> str:
        return (
            f"Architecture(name={self.name!r}, processors={len(self)}, "
            f"links={len(self._links)})"
        )
