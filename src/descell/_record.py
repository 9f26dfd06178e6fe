"""The one base of descell's immutable record classes."""


class Record:
    """An immutable record over the fields named in ``__slots__``.

    A subclass names its fields in ``__slots__``, in order, and its own
    ``__init__`` normalises and checks its arguments, then hands the field
    values to ``Record.__init__`` in that order. Equality (with a record of
    the same class only), the hash and the repr come from the field values;
    assignment and deletion raise ``AttributeError``; copy and pickle
    rebuild the record through its class's ``__init__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
