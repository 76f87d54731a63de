"""Processor vertices of the architecture graph.

Section 3.3: a processor is made of one computation unit, one local
memory, and one or more communication units, each bound to one
communication link.  At the model level we only need the identity; the
number of communication units is derived from the links attached to the
processor in the :class:`~repro.hardware.Architecture`.
"""

from __future__ import annotations

from repro._record import FrozenRecord


class Processor(FrozenRecord):
    """A computing site of the target architecture; sorts by name.

    Examples
    --------
    >>> Processor("P1").name
    'P1'
    """

    _fields = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("processor name must be a non-empty string")
        self.__dict__["name"] = name

    def __lt__(self, other: "Processor") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name < other.name

    def __str__(self) -> str:
        return self.name
