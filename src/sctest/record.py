"""The shared base of sctest's frozen records.

A record class names its fields, in order, in `_fields`, and writes its
own `__init__`, which stores each field with `setfield`.  The base
compares two records field by field (a record equals only a record of
the very same class, so a FuzzCall never equals a ConcreteCall), hashes
the tuple of their fields, shows them as `Name(field=value, ...)`, and
refuses assignment and deletion.  A record is not a sequence.

The classes are written out rather than built by a class decorator
that generates their methods, which compiles those methods from source
at every import, in every process; no bytecode cache can keep that work.
"""

from operator import attrgetter

# stores a field from __init__, past the base's refusing __setattr__
setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields
        if len(names) > 1:
            values = attrgetter(*names)
        elif names:
            value = attrgetter(names[0])

            def values(record):
                return (value(record),)
        else:

            def values(record):
                return ()

        # the tuple of a record's fields, in order
        cls._values = staticmethod(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")
