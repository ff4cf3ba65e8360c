"""Immutable records written out by hand, with no class generated at import.

A subclass names its fields in ``_fields``, lists them (and any cache
slot) in ``__slots__``, and stores them in its own ``__init__`` through
``_init``. Record gives it what a frozen dataclass would: equality with
records of the same class on the field values, a hash of the tuple of
field values, a repr, copying and pickling, ``_replace``, and assignment
that raises.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        values = dict(zip(self._fields, self._values()))
        values.update(changes)
        return type(self)(**values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
