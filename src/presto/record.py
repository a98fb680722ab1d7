"""The base of presto's plain record classes.

A record that is mutable, indexes itself when it is built, or must not be
a tuple is a ``__slots__`` class with an explicit ``__init__``.  Its
``_fields`` name, in order, what its repr shows (``Name(field=value,
...)``) and what its equality compares, between records of one class.  A
record is unhashable unless its class says otherwise.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self._fields] == [getattr(other, name) for name in self._fields]

    __hash__ = None
