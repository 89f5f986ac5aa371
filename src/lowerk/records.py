"""Bases for the package's slotted record classes.

Each record declares its fields as `__slots__` in order and writes its
own `__init__`, and defines `==` and `hash` only where they are compared.
The bases give the one shared piece, a repr listing the public fields,
and an immutable variant whose `__init__` stores through
`object.__setattr__`.
"""


class Record:
    """A record whose repr reads Name(field=value, ...) over its public slots."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = [name for cls in reversed(type(self).__mro__)
                  for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_")]
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """A record that refuses attribute assignment once built."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is immutable; cannot delete {name!r}")
