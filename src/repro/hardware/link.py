"""Communication links of the architecture graph.

The paper primarily targets point-to-point links (which allow parallel
communications, section 4.4) but also discusses multi-point links (buses),
on which replicated comms are serialised.  Both kinds are supported; a
link is identified by name and knows the set of processors it connects.
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro._record import FrozenRecord


class LinkKind(str, enum.Enum):
    """Point-to-point wire or multi-point bus."""

    POINT_TO_POINT = "point-to-point"
    BUS = "bus"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Link(FrozenRecord):
    """A communication medium connecting two or more processors.

    Parameters
    ----------
    name:
        Unique identifier within one architecture.
    endpoints:
        Names of the processors reachable through the link.  A
        point-to-point link has exactly two; a bus has two or more.
    kind:
        :class:`LinkKind`; inferred as point-to-point for two endpoints
        unless stated otherwise.

    Examples
    --------
    >>> link = Link.between("L1.2", "P1", "P2")
    >>> link.connects("P1", "P2")
    True
    """

    _fields = ("name", "endpoints", "kind")

    def __init__(
        self,
        name: str,
        endpoints: Iterable[str],
        kind: LinkKind = LinkKind.POINT_TO_POINT,
    ) -> None:
        if not name:
            raise ValueError("link name must be a non-empty string")
        if not isinstance(endpoints, frozenset):
            endpoints = frozenset(endpoints)
        if not isinstance(kind, LinkKind):
            kind = LinkKind(kind)
        if kind is LinkKind.POINT_TO_POINT and len(endpoints) != 2:
            raise ValueError(
                f"point-to-point link {name!r} needs exactly 2 endpoints, "
                f"got {sorted(endpoints)}"
            )
        if kind is LinkKind.BUS and len(endpoints) < 2:
            raise ValueError(f"bus {name!r} needs at least 2 endpoints")
        self.__dict__.update(name=name, endpoints=endpoints, kind=kind)

    @classmethod
    def between(cls, name: str, first: str, second: str) -> "Link":
        """Convenience constructor for a point-to-point link."""
        return cls(name, frozenset({first, second}), LinkKind.POINT_TO_POINT)

    @classmethod
    def bus(cls, name: str, endpoints: Iterable[str]) -> "Link":
        """Convenience constructor for a multi-point bus."""
        return cls(name, frozenset(endpoints), LinkKind.BUS)

    def connects(self, first: str, second: str) -> bool:
        """True when both processors are endpoints of this link."""
        return first in self.endpoints and second in self.endpoints

    def attaches(self, processor: str) -> bool:
        """True when ``processor`` has a communication unit on this link."""
        return processor in self.endpoints

    def is_point_to_point(self) -> bool:
        """True for a two-endpoint dedicated wire."""
        return self.kind is LinkKind.POINT_TO_POINT

    def is_bus(self) -> bool:
        """True for a shared multi-point medium."""
        return self.kind is LinkKind.BUS

    def sorted_endpoints(self) -> tuple[str, ...]:
        """Endpoints in deterministic (sorted) order."""
        return tuple(sorted(self.endpoints))

    def __str__(self) -> str:
        return self.name
