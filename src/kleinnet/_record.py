"""A frozen value record on `__slots__`, cheaper to define than a frozen
dataclass: a dataclass generates its methods with `exec` for each class,
and `dataclasses` imports `inspect`, which a cold CLI call pays for."""

from __future__ import annotations


class Record:
    """Base of the frozen records.  A subclass lists its fields in
    `__slots__`, in order, and optionally their defaults in `_defaults`;
    that is the only place its fields are declared.  The constructor takes
    the fields positionally or by keyword, like a function whose parameters
    are the slots.  A subclass that checks or coerces its input keeps its
    own `__init__` and ends it with `super().__init__(...)`.  Records print
    as `Name(field=value, ...)`, compare and hash by their field tuple
    within one class, refuse assignment, and copy and pickle by calling the
    class with the fields."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(names)} arguments"
                f" but {len(args)} were given"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(
                    f"{type(self).__qualname__}() missing required argument {name!r}"
                )
            object.__setattr__(self, name, value)
        if kwargs:
            # a keyword left over repeats a positional field or names no field
            name = next(iter(kwargs))
            what = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() got {what} argument {name!r}")

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
