"""Immutable classes that validate or cache, without ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect`` and its dependencies, and
every decorated class compiles generated methods at import time; together
that is about half the cost of importing the package, paid by every CLI
process.  Plain value records are ``typing.NamedTuple``s instead.  Classes
that check their arguments or cache derived values subclass ``Frozen``.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    """Base for immutable classes with named fields.

    A subclass lists its fields in ``_fields`` and stores them from
    ``__init__`` with ``_set``.  Afterwards, assigning or deleting an
    attribute raises ``AttributeError``.  Equality and hashing compare the
    field values, in order, between instances of the same class.
    Instances keep a ``__dict__``, so ``functools.cached_property`` can
    store into it.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        vars(self).update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
