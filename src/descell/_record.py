"""The one base of descell's immutable record classes."""


class Record:
    """An immutable record over the fields named in ``__slots__``.

    A subclass names its fields in ``__slots__``, in order. Unless it
    defines an ``__init__`` (to normalise and check its arguments, then
    hand the values to ``Record.__init__``), it gets one whose parameters
    are its fields, in order, the trailing ones defaulting to the values
    of its ``_defaults``. Equality (with a record of the same class only),
    the hash and the repr come from the field values; assignment and
    deletion raise ``AttributeError``; copy and pickle rebuild the record
    through its class's ``__init__``.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        if cls.__init__ is not Record.__init__:
            return
        names = cls.__slots__
        source = f"def __init__(self, {', '.join(names)}):\n" + "".join(
            f"    _setattr(self, {name!r}, {name})\n" for name in names)
        namespace = {"_setattr": object.__setattr__, "__name__": cls.__module__}
        exec(source, namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"

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
