"""Base class of the slotted immutable value types and records.

``__slots__`` lists the fields, then any lazily filled caches (names with a
leading underscore); they are written once through ``object.__setattr__``
and every later assignment raises.  Equality and hashing run over the
fields alone, as they did for the frozen dataclasses this replaces; each
subclass lists its fields once, at class creation, with an ``attrgetter``
of them, so a hash or comparison does not walk ``__slots__``.

A record is built from its fields by position, by name or both, as
``Summand("H", lattice, offset=0)``, and leaves its caches unset; a missing,
unknown or repeated field raises TypeError.  Records are not tuples: under
postponed annotations the typing module's named tuples compile a
``ForwardRef`` per field at import, about 4 ms of every CLI process, and no
record needs to index, unpack or order like a tuple.
"""


from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        """Names the class's fields once, and keeps a getter of all of them as
        one tuple (also for a class with a single field)."""
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._fields_of = staticmethod(lambda obj: (get(obj),))
        else:
            cls._fields_of = attrgetter(*fields)

    def __init__(self, *values, **named):
        """One value per field, by position and then by name; the caches are
        left for their first use."""
        names = self._fields
        cls = type(self).__name__
        if len(values) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, not {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        for name in names[len(values):]:
            if name not in named:
                raise TypeError(f"{cls} is missing field {name!r}")
            object.__setattr__(self, name, named.pop(name))
        if named:
            raise TypeError(f"{cls} got unexpected or repeated fields {sorted(named)}")

    def _key(self) -> tuple:
        return self._fields_of(self)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"
