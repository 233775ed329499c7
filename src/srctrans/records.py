"""Value classes with what a dataclass gives, written once.

Building a dataclass generates and compiles its methods, at 0.5-2.4 ms a
class, and `import dataclasses` pulls in `inspect`, `ast`, `dis` and
`tokenize`; that was about half of srctrans's import time.  `Record` and
`Frozen` give the same behaviour with methods shared by every class,
driven by two class attributes:

- `__match_args__`, the constructor's fields in order: the class's
  `__slots__`, unless it declares them apart (a slot it fills itself);
- `_compared`, the fields that make up repr, `==` and hash: all of
  `__match_args__`, unless the class declares fewer.

A subclass writes its own `__init__`, with the fields' defaults, and
stores the fields with `Record.__init__(self, *values)` in
`__match_args__` order.  `Record` behaves as a mutable dataclass: the
dataclass repr, `==` between instances of one class by their compared
values, and no hash.  `Frozen` behaves as a frozen one: it adds the hash
of the compared values, and `setattr` and `delattr` raise
`dataclasses.FrozenInstanceError`, with `dataclasses` imported only then.
A copy or a pickle of either calls the constructor again, so a table the
constructor builds is built again.

`Frozen` also mixes into a named tuple, so that a class made in one
allocation keeps this contract: `terms.Term` puts it before the named
tuple in its bases, declares its `__match_args__`, and fills its fields
with the named tuple's `__new__`, with `__init__ = object.__init__`.
`Token` and `Case` are plain named tuples.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if "__match_args__" not in vars(cls):
            cls.__match_args__ = cls.__slots__
        if "_compared" not in vars(cls):
            cls._compared = cls.__match_args__
        # _values(obj) is the tuple of obj's compared fields
        names = cls._compared
        if len(names) > 1:
            cls._values = staticmethod(attrgetter(*names))
        elif names:
            cls._values = staticmethod(lambda obj, get=attrgetter(*names): (get(obj),))

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._compared])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    __hash__ = None

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, n) for n in self.__match_args__])


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
