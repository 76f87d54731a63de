"""Operation vertices of the algorithm data-flow graph.

The paper's algorithm model (section 3.2) distinguishes three kinds of
operations:

* *computation* (``comp``) — pure function from inputs to outputs,
* *memory* (``mem``) — a register whose output precedes its input,
* *external I/O* (``extio``) — sensor/actuator interface; the only
  operations with side effects.

Operations are identified by name; the :class:`Operation` value object
carries the kind and is hashable so it can live in sets and dict keys.
"""

from __future__ import annotations

import enum

from repro._record import FrozenRecord


class OperationKind(str, enum.Enum):
    """Kind of a data-flow vertex, mirroring section 3.2 of the paper."""

    COMPUTATION = "comp"
    MEMORY = "mem"
    EXTERNAL_IO = "extio"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Operation(FrozenRecord):
    """A vertex of the algorithm graph.

    Operations compare, hash and sort by name alone.

    Parameters
    ----------
    name:
        Unique identifier within one :class:`~repro.graphs.AlgorithmGraph`.
    kind:
        One of :class:`OperationKind`; defaults to a computation.

    Examples
    --------
    >>> Operation("A").is_computation()
    True
    >>> Operation("I", OperationKind.EXTERNAL_IO).kind
    <OperationKind.EXTERNAL_IO: 'extio'>
    """

    _fields = ("name", "kind")

    def __init__(
        self, name: str, kind: OperationKind = OperationKind.COMPUTATION
    ) -> None:
        if not name:
            raise ValueError("operation name must be a non-empty string")
        if not isinstance(kind, OperationKind):
            kind = OperationKind(kind)
        self.__dict__.update(name=name, kind=kind)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash((self.name,))

    def __lt__(self, other: "Operation") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name < other.name

    def is_computation(self) -> bool:
        """True when the operation is a pure computation (``comp``)."""
        return self.kind is OperationKind.COMPUTATION

    def is_memory(self) -> bool:
        """True when the operation is a register-like memory (``mem``)."""
        return self.kind is OperationKind.MEMORY

    def is_external_io(self) -> bool:
        """True when the operation is a sensor/actuator interface."""
        return self.kind is OperationKind.EXTERNAL_IO

    def __str__(self) -> str:
        return self.name


#: Suffix appended to the *read* half of an expanded memory operation.
MEMORY_READ_SUFFIX = "#read"
#: Suffix appended to the *write* half of an expanded memory operation.
MEMORY_WRITE_SUFFIX = "#write"


def memory_read_name(name: str) -> str:
    """Name of the read (source) half of an expanded ``mem`` operation."""
    return name + MEMORY_READ_SUFFIX


def memory_write_name(name: str) -> str:
    """Name of the write (sink) half of an expanded ``mem`` operation."""
    return name + MEMORY_WRITE_SUFFIX


def is_memory_half(name: str) -> bool:
    """True when ``name`` denotes either half of an expanded memory."""
    return name.endswith(MEMORY_READ_SUFFIX) or name.endswith(MEMORY_WRITE_SUFFIX)


def memory_base_name(name: str) -> str:
    """Original ``mem`` operation name behind an expanded half.

    Returns ``name`` unchanged when it is not an expanded memory half.
    """
    for suffix in (MEMORY_READ_SUFFIX, MEMORY_WRITE_SUFFIX):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name
