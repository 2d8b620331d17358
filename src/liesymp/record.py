"""Immutable value records: the base of liesymp's value classes.

A subclass declares its fields as class annotations, in order:

    class GoldenRow(Record):
        name: str
        claim: str

An instance takes its fields positionally or by keyword, refuses
assignment and deletion, compares equal only to an instance of its own
class with equal fields, and hashes its field tuple. Fields live in the
instance `__dict__`, so `functools.cached_property`, which writes that
dict directly, works on a record.

These methods are written out once rather than generated per class:
the standard library's generator imports `inspect`, `ast`, `dis` and
`tokenize` and compiles five methods for each frozen class, together
about a third of what `import liesymp.cli` cost. The generic `__init__`
loops over the field names; `Matrix` and `Tensor3`, built far more
often than the others, define their own positional one.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__   # sets a field; self.__dict__ would slow loads


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._get = attrgetter(*cls._fields)   # the field tuple of one

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args):]
                           if name in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(names)}, once each")
        for name, value in zip(names, args):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == self._get(other)

    def __hash__(self):
        return hash(self._get(self))

    def __repr__(self) -> str:
        return (type(self).__name__ + "("
                + ", ".join(f"{name}={getattr(self, name)!r}"
                            for name in self._fields) + ")")
