"""Base class of the package's value records.

Every value the package returns or validates, except a `wick.ModeLabel`,
is a `Record`: the validating records (`QPolynomial`, `StateVector`,
`RepCoefficients`, `CompositeSpec`, `BoundRecord`), which check their
arguments in their own ``__init__``, and the result records (`GramMatrix`,
`PsdReport`, `TwoCompositeResult`, `ChainRow`, `CharacterTable`,
`SeminormalForm`), which take their fields as given through the
constructor of `Record` itself.
"""

from types import MappingProxyType


class Record:
    """Immutable value record.

    A subclass lists its fields as ``__slots__``, in constructor order.
    The constructor here binds positional values, then keywords, in that
    order, and refuses a missing or unknown field with TypeError; a
    validating subclass has its own ``__init__``, which checks the
    arguments and sets the fields once with ``_set``.  ``_set`` stores a
    dict field as a read-only mapping proxy.  Equality, hashing and repr
    go by the fields in that order, as for a frozen dataclass; copying
    and pickling call the constructor again.
    """

    __slots__ = ()

    def __init__(self, *values, **fields):
        cls, names = type(self).__name__, self.__slots__
        if len(values) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(values)}")
        for name in names[len(values):]:
            if name not in fields:
                raise TypeError(f"{cls} is missing the field {name!r}")
            values += (fields.pop(name),)
        if fields:
            raise TypeError(f"{cls} got an unknown or repeated field {next(iter(fields))!r}")
        self._set(*values)

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
