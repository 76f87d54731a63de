"""Plain record classes: a ``repr`` and value equality over named fields.

A record class names its fields in ``_fields``, in constructor order,
and writes its own ``__init__``.  It inherits

* ``repr``: ``Name(field=value, ...)`` over ``_fields``;
* ``==``: same class and equal field values (which leaves a
  :class:`Record` unhashable, as a mutable value should be);
* :meth:`Record.replace`: a copy with some fields changed, built (and
  checked) by the constructor.

A :class:`FrozenRecord` also hashes by its field values and rejects
assignment; its ``__init__`` stores the fields with
``self.__dict__.update``.  The cold commands define their records
this way: building a class costs no source generation.
"""

from __future__ import annotations


class Record:
    """Base of a mutable record class (see the module docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._fields]
        )
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def replace(self, **changes):
        """A new instance with ``changes`` applied to these fields."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


class FrozenRecord(Record):
    """Base of an immutable, hashable record class."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
