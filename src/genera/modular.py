"""Level-one modular form q-expansions, as pure q-series.

Each form is a LaurentSeries with no y-variables; its weight is stated in
the docstring of the function that builds it. The forms only feed q-series
coefficients into the Jacobi generators and the checks, and the weights
never need to be read at run time.

>>> e4(3).coeff(1)
Fraction(240, 1)
>>> verify_ring_relation(12)
True
"""

from __future__ import annotations

import math

from genera.series import LaurentSeries


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) for n >= 1."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d ** k
    return total


def _eisenstein(weight: int, c: int, qmax: int) -> LaurentSeries:
    """1 + c * sum_{n>=1} sigma_{weight-1}(n) q^n, of the given weight."""
    coeffs = {(0, ()): 1}
    for n in range(1, qmax + 1):
        coeffs[(n, ())] = c * sigma(weight - 1, n)
    return LaurentSeries(0, qmax, coeffs)


def e2(qmax: int) -> LaurentSeries:
    """Eisenstein series of weight 2: 1 - 24 sum sigma_1(n) q^n.

    Only quasimodular: E2 picks up an extra term under tau -> -1/tau, so it
    lies outside the ring generated by e4 and e6. It enters the Jacobi
    generators as the constant of the Weierstrass function (jacobi._phi01).
    """
    return _eisenstein(2, -24, qmax)


def e4(qmax: int) -> LaurentSeries:
    """Eisenstein series of weight 4: 1 + 240 sum sigma_3(n) q^n."""
    return _eisenstein(4, 240, qmax)


def e6(qmax: int) -> LaurentSeries:
    """Eisenstein series of weight 6: 1 - 504 sum sigma_5(n) q^n."""
    return _eisenstein(6, -504, qmax)


def eta3_sum(qmax: int) -> LaurentSeries:
    """prod_{m>=1} (1 - q^m)^3 = eta^3 / q^{1/8}, as Jacobi's single sum

        sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}.
    """
    return LaurentSeries(0, qmax, {(n * (n + 1) // 2, ()): (-1) ** n * (2 * n + 1)
                                   for n in range(math.isqrt(2 * qmax) + 1)})


def delta(qmax: int) -> LaurentSeries:
    """The discriminant form q * prod_{m>=1} (1 - q^m)^24 = q * eta3_sum^8, weight 12."""
    return LaurentSeries.monomial(0, qmax, 1, ()) * eta3_sum(qmax) ** 8


def verify_ring_relation(qmax: int) -> bool:
    """e4^3 - e6^2 == 1728 * delta, coefficientwise up to q^qmax (weight 12)."""
    return e4(qmax) ** 3 - e6(qmax) ** 2 == 1728 * delta(qmax)
