"""The base class of dspkit's immutable value types.

It gives them the repr, equality, hashing and immutability of a frozen
dataclass without `import dataclasses`, which loads `inspect`, `ast`, `dis`
and `tokenize`, and without the decorator, which compiles generated source
for every class.  Both would cost every command's start-up when no
bytecode is cached.
"""

from operator import attrgetter


class Record:
    """An immutable value with named fields.

    A subclass declares its fields as class annotations, in order, as for a
    dataclass (`_fields` holds their names), and writes every field into
    `self.__dict__` in its own `__init__`.  The repr, `==` and `hash` are
    those of a frozen dataclass with these fields: `Name(f=value!r, ...)`,
    equal field tuples within one class (`NotImplemented` across classes),
    and the hash of the field tuple.  Other entries of the instance dict are
    not fields and take no part in them.  Assigning or deleting any
    attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*fields)
        # one attrgetter of several names returns their tuple; of one, the bare value
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __repr__(self) -> str:
        inner = ", ".join([f"{f}={v!r}" for f, v in zip(self._fields, self._values(self))])
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
