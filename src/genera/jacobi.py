"""Weak Jacobi form generators and structural checks.

Forms live in the doubled-exponent Laurent ring of genera.series: a stored
key R means y^{R/2}, and index2 is twice the true index, so half-integer
index forms sit in the same integer bookkeeping. Every JacobiForm satisfies
the support parity R == index2 (mod 2) in each variable.

Generators of the weight-0 part of the ring, with their doubled indices and
values at z = 0:

    name      weight2  index2   ev
    a           -2        1      0
    phi01        0        2     12
    phi032       0        3      2
    phi02        0        4      6
    phi04        0        8      3

phi02 and phi04 are produced by exact divisions (by 24 and 4) that must leave
integral series; the constructors assert that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from genera import modular
from genera.series import LaurentSeries, require_keys

GENERATOR_NAMES = ("a", "phi01", "phi032", "phi02", "phi04")

# z = 0 values of the weight-0 generators (weight-0 Jacobi forms restrict to
# constants on z = 0).
EV_CONSTANTS = {"phi01": 12, "phi032": 2, "phi02": 6, "phi04": 3}


@dataclass(frozen=True)
class JacobiForm:
    """A (truncated) weak Jacobi form: graded series plus (weight2, index2)."""
    weight2: int
    index2: int
    series: LaurentSeries

    def __post_init__(self):
        if self.series.nvars < 1:
            raise ValueError("a Jacobi form needs at least one elliptic variable")
        for (n, R) in self.series.coeffs:
            for r in R:
                if (r - self.index2) % 2 != 0:
                    raise ValueError(
                        f"support parity broken at {(n, R)}: R != index2 (mod 2)")

    @property
    def nvars(self) -> int:
        return self.series.nvars

    @property
    def qmax(self) -> int:
        return self.series.qmax

    def coeff(self, n: int, R) -> Fraction:
        return self.series.coeff(n, R)

    def __mul__(self, other):
        if isinstance(other, JacobiForm):
            return JacobiForm(self.weight2 + other.weight2,
                              self.index2 + other.index2,
                              self.series * other.series)
        if isinstance(other, modular.QExpansion):
            lifted = _lift(other.series, self.nvars)
            return JacobiForm(self.weight2 + other.weight2, self.index2,
                              self.series * lifted)
        if isinstance(other, (int, Fraction)):
            return JacobiForm(self.weight2, self.index2, self.series * other)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "JacobiForm"):
        if not isinstance(other, JacobiForm):
            return NotImplemented
        if (self.weight2, self.index2) != (other.weight2, other.index2):
            raise ValueError("can only add forms of equal weight and index")
        return JacobiForm(self.weight2, self.index2, self.series + other.series)

    def __sub__(self, other: "JacobiForm"):
        if not isinstance(other, JacobiForm):
            return NotImplemented
        return self + (-1) * other

    def __pow__(self, k: int) -> "JacobiForm":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        return JacobiForm(self.weight2 * k, self.index2 * k, self.series ** k)

    def truncate(self, qmax: int) -> "JacobiForm":
        return JacobiForm(self.weight2, self.index2, self.series.truncate(qmax))

    def to_obj(self) -> dict:
        return {"weight2": self.weight2, "index2": self.index2,
                **self.series.to_obj()}

    @classmethod
    def from_obj(cls, obj) -> "JacobiForm":
        require_keys(obj, "weight2", "index2")
        return cls(int(obj["weight2"]), int(obj["index2"]),
                   LaurentSeries.from_obj(obj))


def _lift(s: LaurentSeries, nvars: int) -> LaurentSeries:
    """View a pure q-series inside the nvars-variable ring."""
    if s.nvars != 0:
        raise ValueError("lift expects a series with no y-variables")
    zero = (0,) * nvars
    return LaurentSeries(nvars, s.qmax,
                         {(n, zero): c for (n, _), c in s.coeffs.items()})


# ----------------------------------------------------------------------
# generators


def _product_side(qmax: int, t: int) -> LaurentSeries:
    """prod_{m>=1} (1 - q^m y^t)(1 - q^m y^-t), truncated at q^qmax."""
    one = LaurentSeries.one(1, qmax)
    out = one
    for m in range(1, qmax + 1):
        f1 = one - LaurentSeries.monomial(1, qmax, m, (2 * t,))
        f2 = one - LaurentSeries.monomial(1, qmax, m, (-2 * t,))
        out = out * f1 * f2
    return out


def _euler_factor_sq_inv(qmax: int) -> LaurentSeries:
    """[prod_{m>=1} (1 - q^m)^2]^{-1} as a 1-variable series (no y-support)."""
    one = LaurentSeries.one(1, qmax)
    prod = one
    for m in range(1, qmax + 1):
        f = one - LaurentSeries.monomial(1, qmax, m, (0,))
        prod = prod * f * f
    return prod.inverse()


@lru_cache(maxsize=None)
def generator_a(qmax: int) -> JacobiForm:
    """The odd generator of weight -2 and doubled index 1.

    a = (y^{1/2} - y^{-1/2}) prod_{m>=1} (1-q^m y)(1-q^m y^{-1}) / (1-q^m)^2.
    Vanishes at z = 0; a(-z) = -a(z).
    """
    pref = (LaurentSeries.monomial(1, qmax, 0, (1,))
            - LaurentSeries.monomial(1, qmax, 0, (-1,)))
    s = pref * _product_side(qmax, 1) * _euler_factor_sq_inv(qmax)
    return JacobiForm(-2, 1, s.as_integral())


@lru_cache(maxsize=None)
def _phi032(qmax: int) -> JacobiForm:
    """a(2z)/a(z), computed without ring division.

    Both numerator and denominator share the (1-q^m)^-2 factor, and the
    zero-set prefactors divide in closed form:
    (y - y^{-1})/(y^{1/2} - y^{-1/2}) = y^{1/2} + y^{-1/2}. What remains is
    the quotient of two infinite products whose q^0 layer is 1, so only a
    unit inversion is needed. Weight 0, doubled index 3, ev = 2.
    """
    pref = (LaurentSeries.monomial(1, qmax, 0, (1,))
            + LaurentSeries.monomial(1, qmax, 0, (-1,)))
    s = pref * _product_side(qmax, 2) * _product_side(qmax, 1).inverse()
    return JacobiForm(0, 3, s.as_integral())


def _theta2_quotient(qmax: int) -> LaurentSeries:
    """theta_2(z)^2 / theta_2(0)^2 on the integer q-grid.

    theta_2(z)^2 = sum_{n,m} q^{((n+1/2)^2+(m+1/2)^2)/2} y^{n+m+1}; the q^{1/4}
    prefactor cancels in the quotient and (n(n+1)+m(m+1))/2 is an integer.
    The denominator series has leading coefficient 4 (the four lattice points
    with n, m in {0, -1}).
    """
    N = int(math.isqrt(2 * qmax)) + 2
    num: dict = {}
    den: dict = {}
    for n in range(-N, N + 1):
        for m in range(-N, N + 1):
            e = (n * (n + 1) + m * (m + 1)) // 2
            if e > qmax:
                continue
            key = (e, (2 * (n + m + 1),))
            num[key] = num.get(key, 0) + 1
            dkey = (e, (0,))
            den[dkey] = den.get(dkey, 0) + 1
    return LaurentSeries(1, qmax, num) * LaurentSeries(1, qmax, den).inverse()


def _theta34_quotients(qmax: int) -> LaurentSeries:
    """theta_3(z)^2/theta_3(0)^2 + theta_4(z)^2/theta_4(0)^2.

    Each summand lives on the q^{1/2} grid (exponents (n^2+m^2)/2), so both
    are assembled with Q = q^{1/2} and Qmax = 2*qmax + 1. The theta_4 series
    is the theta_3 series at Q -> -Q, so odd Q-powers must cancel in the sum;
    that cancellation is asserted before reducing back to the q-grid.
    """
    Qmax = 2 * qmax + 1
    N = int(math.isqrt(Qmax)) + 2
    b: dict = {}
    b0: dict = {}
    c: dict = {}
    c0: dict = {}
    for n in range(-N, N + 1):
        for m in range(-N, N + 1):
            e = n * n + m * m
            if e > Qmax:
                continue
            sgn = -1 if (n + m) % 2 else 1
            key = (e, (2 * (n + m),))
            b[key] = b.get(key, 0) + 1
            c[key] = c.get(key, 0) + sgn
            b0[(e, (0,))] = b0.get((e, (0,)), 0) + 1
            c0[(e, (0,))] = c0.get((e, (0,)), 0) + sgn
    B = LaurentSeries(1, Qmax, b) * LaurentSeries(1, Qmax, b0).inverse()
    C = LaurentSeries(1, Qmax, c) * LaurentSeries(1, Qmax, c0).inverse()
    S = B + C
    out: dict = {}
    for (e, R), coeff in S.coeffs.items():
        if e % 2 != 0:
            raise AssertionError(
                f"odd half-power Q^{e} survived the theta_3/theta_4 pairing")
        if e // 2 <= qmax:
            out[(e // 2, R)] = coeff
    return LaurentSeries(1, qmax, out)


@lru_cache(maxsize=None)
def _phi01(qmax: int) -> JacobiForm:
    """Weight 0, doubled index 2, ev = 12; built from three theta quotients.

    phi01 = 4 * sum_{i in {2,3,4}} theta_i(z)^2 / theta_i(0)^2.
    q^0 layer: y + 10 + y^{-1}.
    """
    s = 4 * (_theta2_quotient(qmax) + _theta34_quotients(qmax))
    return JacobiForm(0, 2, s.as_integral())


@lru_cache(maxsize=None)
def _phi02(qmax: int) -> JacobiForm:
    """Weight 0, doubled index 4, ev = 6: (phi01^2 - E4 a^4)/24, exactly."""
    p1 = _phi01(qmax)
    a4 = generator_a(qmax) ** 4
    e4a4 = modular.e4(qmax) * a4  # weight2: 8 + (-8) = 0
    s = (p1 ** 2).series - e4a4.series
    return JacobiForm(0, 4, (s * Fraction(1, 24)).as_integral())


@lru_cache(maxsize=None)
def _phi04(qmax: int) -> JacobiForm:
    """Weight 0, doubled index 8, ev = 3: (phi01 phi032^2 - phi02^2)/4, exactly."""
    s = (_phi01(qmax) * _phi032(qmax) ** 2).series - (_phi02(qmax) ** 2).series
    return JacobiForm(0, 8, (s * Fraction(1, 4)).as_integral())


def generator(name: str, qmax: int) -> JacobiForm:
    """Dispatch on name in {a, phi01, phi032, phi02, phi04}."""
    builders = {"a": generator_a, "phi01": _phi01, "phi032": _phi032,
                "phi02": _phi02, "phi04": _phi04}
    if name not in builders:
        raise ValueError(f"unknown generator {name!r}; choose from {GENERATOR_NAMES}")
    return builders[name](qmax)


# ----------------------------------------------------------------------
# structural checks


def ev_z0(f: JacobiForm) -> modular.QExpansion:
    """Restriction to z = 0 (every y_i = 1), as a weighted q-expansion."""
    return modular.QExpansion(f.weight2, f.series.collapse_y())


@dataclass(frozen=True)
class EllipticLawReport:
    lam: int
    pairs_checked: int
    violations: tuple
    vacuous: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def check_elliptic_law(f: JacobiForm, lam: int) -> EllipticLawReport:
    """Coefficient form of the index-m transformation law, for one lambda.

    With r = R/2 and m = index2/2, coefficients must satisfy

        c(n + lam*r + m*lam^2, r + 2*m*lam) = sign * c(n, r),

    where sign = (-1)^(index2 * lam) is the theta character; it is trivial
    for integral index (even index2) and alternates for half-integral index.
    Shifted keys with negative q-power count as coefficient zero; shifted
    keys beyond qmax are not checkable and are skipped.
    """
    if f.nvars != 1:
        raise ValueError("elliptic law check is single-variable")
    m2 = f.index2
    sign = -1 if (m2 * lam) % 2 else 1

    def image(n, R, l):
        num = l * R + m2 * l * l
        assert num % 2 == 0  # parity invariant makes the shift integral
        return n + num // 2, R + 2 * m2 * l

    # stored keys plus in-window preimages of stored keys: the latter catch a
    # nonzero target paired with an absent (zero) source. A source beyond
    # qmax is unknown, not zero, so it is never a candidate.
    candidates = set()
    for (n, (R,)) in f.series.coeffs:
        candidates.add((n, R))
        pn, pR = image(n, R, -lam)
        if 0 <= pn <= f.qmax:
            candidates.add((pn, pR))

    checked = 0
    violations = []
    for (n, R) in sorted(candidates):
        n2, R2 = image(n, R, lam)
        if n2 > f.qmax:
            continue
        expected = sign * f.coeff(n, R)
        got = f.coeff(n2, R2) if n2 >= 0 else Fraction(0)
        checked += 1
        if got != expected:
            violations.append((n, R, n2, R2, expected, got))
    return EllipticLawReport(lam, checked, tuple(violations), checked == 0)


def is_even(f: JacobiForm) -> bool:
    """True iff c(n, R) = c(n, -R) for every stored term (single variable)."""
    if f.nvars != 1:
        raise ValueError("evenness check is single-variable")
    for (n, (R,)), c in f.series.coeffs.items():
        if f.coeff(n, -R) != c:
            return False
    return True


# ----------------------------------------------------------------------
# weight-0 monomial basis and the gcd lattice


def weight0_monomials(index2: int) -> list[tuple[int, int, int, int]]:
    """Exponents (e1, e2, e3, e4) of phi01^e1 phi032^e2 phi02^e3 phi04^e4
    with 2 e1 + 3 e2 + 4 e3 + 8 e4 = index2. Unreduced enumeration."""
    out = []
    for e4_ in range(index2 // 8 + 1):
        for e3 in range((index2 - 8 * e4_) // 4 + 1):
            for e2 in range((index2 - 8 * e4_ - 4 * e3) // 3 + 1):
                rem = index2 - 8 * e4_ - 4 * e3 - 3 * e2
                if rem >= 0 and rem % 2 == 0:
                    out.append((rem // 2, e2, e3, e4_))
    return out


def dclas_gcd_via_basis(k: int):
    """gcd of z=0 values over the weight-0 doubled-index-k monomial basis.

    Returns None (no constraint, the space is 0) when no monomial exists,
    which happens exactly at k = 1.
    """
    monos = weight0_monomials(k)
    if not monos:
        return None
    g = 0
    for (e1, e2, e3, e4_) in monos:
        val = 12 ** e1 * 2 ** e2 * 6 ** e3 * 3 ** e4_
        g = math.gcd(g, val)
    return g
