"""Level-one modular form q-expansions with doubled-weight bookkeeping.

Forms are pure q-series (no y-variables) tagged with weight2 = 2 * weight, so
the grading matches the Jacobi-form convention used elsewhere. Addition
requires equal weight2; multiplication adds it.

>>> e4(3).series.coeff(1, ())
Fraction(240, 1)
>>> verify_ring_relation(12)
True
"""

from __future__ import annotations

import math
from fractions import Fraction

from genera.series import LaurentSeries
from genera.values import Record


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) for n >= 1."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d ** k
    return total


class QExpansion(Record):
    """A q-expansion with a (doubled) modular weight attached."""
    __slots__ = ("weight2", "series")

    def __init__(self, weight2: int, series: LaurentSeries):
        if series.nvars != 0:
            raise ValueError("modular forms carry no y-variables")
        super().__init__(weight2, series)

    @property
    def qmax(self) -> int:
        return self.series.qmax

    def coeff(self, n: int) -> Fraction:
        return self.series.coeff(n, ())

    def __add__(self, other: "QExpansion") -> "QExpansion":
        if self.weight2 != other.weight2:
            raise ValueError(f"weight mismatch: {self.weight2} vs {other.weight2}")
        return QExpansion(self.weight2, self.series + other.series)

    def __sub__(self, other: "QExpansion") -> "QExpansion":
        if self.weight2 != other.weight2:
            raise ValueError(f"weight mismatch: {self.weight2} vs {other.weight2}")
        return QExpansion(self.weight2, self.series - other.series)

    def __mul__(self, other):
        if isinstance(other, QExpansion):
            return QExpansion(self.weight2 + other.weight2, self.series * other.series)
        if isinstance(other, (int, Fraction)):
            return QExpansion(self.weight2, self.series * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QExpansion":
        return QExpansion(self.weight2 * k, self.series ** k)

    def to_obj(self) -> dict:
        return {"weight2": self.weight2, **self.series.to_obj()}


def e4(qmax: int) -> QExpansion:
    """Eisenstein series of weight 4: 1 + 240 sum sigma_3(n) q^n."""
    coeffs = {(0, ()): Fraction(1)}
    for n in range(1, qmax + 1):
        coeffs[(n, ())] = Fraction(240 * sigma(3, n))
    return QExpansion(8, LaurentSeries(0, qmax, coeffs))


def e6(qmax: int) -> QExpansion:
    """Eisenstein series of weight 6: 1 - 504 sum sigma_5(n) q^n."""
    coeffs = {(0, ()): Fraction(1)}
    for n in range(1, qmax + 1):
        coeffs[(n, ())] = Fraction(-504 * sigma(5, n))
    return QExpansion(12, LaurentSeries(0, qmax, coeffs))


def eta3_sum(qmax: int) -> LaurentSeries:
    """prod_{m>=1} (1 - q^m)^3 = eta^3 / q^{1/8}, as Jacobi's single sum

        sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}.
    """
    return LaurentSeries(0, qmax, {(n * (n + 1) // 2, ()): (-1) ** n * (2 * n + 1)
                                   for n in range(math.isqrt(2 * qmax) + 1)})


def delta(qmax: int) -> QExpansion:
    """The discriminant form q * prod_{m>=1} (1 - q^m)^24 = q * eta3_sum^8, weight 12."""
    return QExpansion(24, LaurentSeries.monomial(0, qmax, 1, ()) * eta3_sum(qmax) ** 8)


def verify_ring_relation(qmax: int) -> bool:
    """e4^3 - e6^2 == 1728 * delta, coefficientwise up to q^qmax."""
    lhs = e4(qmax) ** 3 - e6(qmax) ** 2
    rhs = 1728 * delta(qmax)
    return lhs.series == rhs.series and lhs.weight2 == rhs.weight2
