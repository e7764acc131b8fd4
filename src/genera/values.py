"""Small value types shared across the package.

INF, the package's only infinite order or divisor value, is a singleton,
serialized as the string "inf", and never None or a numeric sentinel. The
only integer INF divides is 0 (an element of infinite order bounds nothing
except the zero Euler number).

Record is the base of the package's immutable records; json_int,
require_keys and the json.load hook unique_keys check JSON input at the
boundary.
"""

from __future__ import annotations

from collections.abc import Mapping


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


def divides(d, e: int) -> bool:
    """Whether the constant d divides the integer e; lawful for d = INF."""
    if d is INF:
        return e == 0
    return e % d == 0


def value_str(v) -> str:
    return "inf" if v is INF else str(v)


def json_int(what: str, value) -> int:
    """value itself if it is a JSON integer; bools, floats and strings raise ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def unique_keys(pairs: list) -> dict:
    """The object_pairs_hook of every JSON file reader: the pairs as a dict,
    or a ValueError naming a repeated key, which json.load would otherwise
    resolve to its last value without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def require_keys(obj, *keys) -> None:
    """Raise ValueError unless obj is a JSON object holding every key."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(map(repr, missing))}")


class Record:
    """An immutable record of named fields.

    A subclass lists its fields in __slots__, in constructor order; they are
    given by position or by name. It writes an __init__ only to check its
    arguments, which it then passes, in that order, to Record.__init__.
    Records compare equal only to records of the same class with equal
    fields, hash their field tuple, print as Name(field=value, ...) and
    refuse assignment and deletion.
    """
    __slots__ = ()

    def __init__(self, *values, **named):
        if named:
            values += tuple(named.pop(name) for name in self.__slots__[len(values):]
                            if name in named)
        if named or len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
