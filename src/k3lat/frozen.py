"""Base class of the slotted immutable value types.

``__slots__`` lists the fields, then any lazily filled caches (names with a
leading underscore); they are written once through ``object.__setattr__``
and every later assignment raises.  Equality and hashing run over the
fields alone, as they did for the frozen dataclasses this replaces.
"""


class Frozen:
    __slots__ = ()

    def __init__(self, *values):
        """One value per slot, in order; a class with caches writes its own."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

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
        names = [name for name in self.__slots__ if name[0] != "_"]
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"
