"""The infinite order/divisor value, shared by divis and cells.

INF is a singleton, serialized as the string "inf", and never a numeric
sentinel. The only integer INF divides is 0 (an element of infinite order
bounds nothing except the zero Euler number).
"""

from __future__ import annotations


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
