"""The base of the package's immutable records."""


class Record:
    """Fields in __slots__, each set once in __init__ by object.__setattr__
    (plain classes: a dataclass generates and compiles its methods when its
    module loads).  Later assignment or deletion raises AttributeError.
    Compared and hashed by identity; repr shows the fields but the names
    in _hidden."""

    __slots__ = ()
    _hidden = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore slots by setattr
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = [f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name not in self._hidden]
        return f"{type(self).__qualname__}({', '.join(fields)})"


class ValueRecord(Record):
    """A record equal to one of its own class with equal fields, and hashed by them."""

    __slots__ = ()

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())
