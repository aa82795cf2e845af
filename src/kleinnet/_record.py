"""A frozen value record on `__slots__`, cheaper to define than a frozen
dataclass: a dataclass generates its methods with `exec` for each class,
and `dataclasses` imports `inspect`, which a cold CLI call pays for."""

from __future__ import annotations


class Record:
    """Base of the frozen records.  A subclass lists its fields in
    `__slots__`, in order, and sets each in its `__init__` with
    `object.__setattr__`.  Records print as `Name(field=value, ...)`,
    compare and hash by their field tuple within one class, refuse
    assignment, and copy and pickle by calling the class with the fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
