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
from typing import TYPE_CHECKING

from genera.series import LaurentSeries, _scalar
from genera.values import Record

if TYPE_CHECKING:
    from fractions import Fraction


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
        if _scalar(other) is not None:
            return QExpansion(self.weight2, self.series * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QExpansion":
        return QExpansion(self.weight2 * k, self.series ** k)


def _eisenstein(weight: int, c: int, qmax: int) -> QExpansion:
    """1 + c * sum_{n>=1} sigma_{weight-1}(n) q^n, tagged with the given weight."""
    coeffs = {(0, ()): 1}
    for n in range(1, qmax + 1):
        coeffs[(n, ())] = c * sigma(weight - 1, n)
    return QExpansion(2 * weight, LaurentSeries(0, qmax, coeffs))


def e2(qmax: int) -> QExpansion:
    """Eisenstein series of weight 2: 1 - 24 sum sigma_1(n) q^n.

    Only quasimodular: E2 picks up an extra term under tau -> -1/tau, so it
    lies outside the ring generated by e4 and e6. It enters the Jacobi
    generators as the constant of the Weierstrass function (jacobi._phi01).
    """
    return _eisenstein(2, -24, qmax)


def e4(qmax: int) -> QExpansion:
    """Eisenstein series of weight 4: 1 + 240 sum sigma_3(n) q^n."""
    return _eisenstein(4, 240, qmax)


def e6(qmax: int) -> QExpansion:
    """Eisenstein series of weight 6: 1 - 504 sum sigma_5(n) q^n."""
    return _eisenstein(6, -504, qmax)


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
