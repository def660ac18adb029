"""Base class of the package's validating value records."""

from types import MappingProxyType


class Record:
    """Immutable value record.

    A subclass lists its fields as ``__slots__``, in constructor order,
    and its ``__init__`` validates the arguments and sets the fields once
    with ``_set``, which stores a dict field as a read-only mapping proxy.
    Equality, hashing and repr go by the fields in that order, as for a
    frozen dataclass; copying and pickling call the constructor again.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            if isinstance(value, dict):
                value = MappingProxyType(value)
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        # a mapping field hashes by its items, as it compares
        return hash(tuple(
            frozenset(v.items()) if isinstance(v, MappingProxyType) else v for v in self._values()
        ))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # a mapping proxy cannot be pickled: pass its items as a dict
        values = (dict(v) if isinstance(v, MappingProxyType) else v for v in self._values())
        return type(self), tuple(values)
