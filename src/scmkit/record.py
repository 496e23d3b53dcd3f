"""Frozen records: the base class of scmkit's results and model parts.

A subclass lists its fields as class annotations, in order, each default as
a class attribute.  :class:`Record` reads them once, when the subclass is
created, and gives it what ``@dataclass(frozen=True)`` gives: an
``__init__`` over the fields that then calls ``__post_init__``, equality
between instances of one class and a hash, both over the tuple of field
values, the dataclass ``repr``, and ``dataclasses.FrozenInstanceError`` on
assignment or deletion.  ``class C(Record, eq=False)`` keeps comparison by
identity.  Importing ``dataclasses`` also imports ``inspect``, and decorating
a class compiles its methods from source; a call that loads this module
does neither.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """Base class of a frozen record; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        # the tuple of field values, read in C where a class has two or more
        get = attrgetter(*cls._fields) if len(cls._fields) > 1 else (
            lambda self: tuple(getattr(self, f) for f in cls._fields))
        cls._values = staticmethod(get)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords, defaults or too many
        arguments, refused the way a generated ``__init__`` refuses it."""
        call, fields = f"{cls.__qualname__}.__init__()", cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields) + 1} positional arguments"
                            f" but {len(args) + 1} were given")
        values = list(args)
        for f in fields[len(args):]:
            if f not in kwargs and f not in cls._defaults:
                raise TypeError(f"{call} missing required argument: {f!r}")
            values.append(kwargs.pop(f) if f in kwargs else cls._defaults[f])
        for k in kwargs:
            what = "multiple values for" if k in fields else "an unexpected keyword"
            raise TypeError(f"{call} got {what} argument {k!r}")
        return values

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
