"""Immutable records with one constructor, and no class generated at import.

A subclass names its fields in ``_fields``, lists them (and any cache
slot) in ``__slots__``, and gives the values of any trailing fields that
may be left out in ``_defaults``. Record's constructor binds positional
values, then keyword values, to the fields, fills the rest from
``_defaults``, and raises TypeError naming the class on too many values, a
missing field, or an unknown or repeated one. A subclass that checks its
arguments defines its own ``__init__`` and passes the checked values on.
Record gives it what a frozen dataclass would: equality with records of
the same class on the field values, a hash of the tuple of field values, a
repr, copying and pickling, ``_replace``, and assignment that raises.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init__(self, *values, **named):
        fields = self._fields
        given = len(values)
        if given > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"values, but {given} were given")
        for name, value in zip(fields, values):
            _set(self, name, value)
        for name in fields[given:]:
            if name in named:
                _set(self, name, named.pop(name))
            elif name in self._defaults:
                _set(self, name, self._defaults[name])
            else:
                raise TypeError(
                    f"{type(self).__name__}() missing field {name!r}")
        if named:   # what is left was bound by position, or is no field
            name = next(iter(named))
            raise TypeError(f"{type(self).__name__}() got field {name!r} twice"
                            if name in fields else
                            f"{type(self).__name__}() has no field {name!r}")

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
