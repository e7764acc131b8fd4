"""Small value types shared across the package.

INF, the package's only infinite order or divisor value, is a singleton,
serialized as the string "inf", and never None or a numeric sentinel. The
only integer INF divides is 0 (an element of infinite order bounds nothing
except the zero Euler number).

Record is the base of the package's immutable records; json_int,
require_keys and the json.load hook unique_keys check JSON input at the
boundary, and json_text writes every JSON output.
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


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), for dicts with str keys,
    lists, str, int, bool and None; any other type, or a key that is not a
    str, raises TypeError.

    Each container is one join of its items' texts. json is imported only to
    escape a string that is not printable ASCII free of '"' and '\\'.
    """
    return _json_text(obj, "\n")


def _json_text(obj, newline: str) -> str:
    kind = type(obj)
    if kind is str:
        if obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
            return f'"{obj}"'
        from json import dumps

        return dumps(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    inner = newline + "  "
    if kind is list:
        if not obj:
            return "[]"
        body = ("," + inner).join([_json_text(v, inner) for v in obj])
        return f"[{inner}{body}{newline}]"
    if kind is dict:
        if not obj:
            return "{}"
        for key in obj:
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        body = ("," + inner).join([f"{_json_text(k, inner)}: {_json_text(v, inner)}"
                                   for k, v in sorted(obj.items())])
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


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
