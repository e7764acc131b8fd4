"""Weak Jacobi form generators and structural checks.

Forms are plain LaurentSeries in the doubled-exponent Laurent ring of
genera.series: a stored key R means y^{R/2}, and index2 is twice the true
index, so half-integer index forms sit in the same integer bookkeeping. A
form of doubled index index2 has support parity R == index2 (mod 2) in each
variable. The gradings live in GRADINGS, not on the series; JacobiForm tags
a series with them only where a form is read or written as JSON.

Generators of the weight-0 part of the ring, with their doubled indices and
values at z = 0:

    name      weight2  index2   ev
    a           -2        1      0
    phi01        0        2     12
    phi032       0        3      2
    phi02        0        4      6
    phi04        0        8      3

a and phi032 are each one finite theta-type sum in y divided by a pure
q-series sum (`_theta_quotient`); no infinite product is expanded and no
y-dependent series is inverted. The rest are built from the theta sum t,
the numerator of a = t / eta3_sum, and its z-Taylor coefficients
t_i = `z_taylor`(t, i), whose products are products of sparse sums:

- phi04 = t(3z)/t(z), one exact division by t taken layer by layer in q
  (`_theta_divide`); it builds no other generator and multiplies no series.
- phi01 = 12 * wp * a^2 = (12 S1 + E2 S0) / eta3_sum^2 with S0 = t_0^2 and
  S1 = t_1^2 - 2 t_0 t_2, E2 the quasimodular Eisenstein series.
- phi02 = (phi01^2 - E4 a^4)/24, rewritten over S0 and S1 with Ramanujan's
  E2^2 - E4 = 12 q dE2/dq so that the only division left is an exact one
  by 2; the constructor asserts that the result is integral.

The only inverses taken are of pure q-series: the eta3 and pentagonal sums.
The q^0 layer of phi01 is y + 10 + y^{-1}:

>>> generator("phi01", 0).q_layer(0) == {(2,): 1, (0,): 10, (-2,): 1}
True
"""

from __future__ import annotations

import math
from functools import lru_cache

from genera import modular
from genera.series import LaurentSeries, _build, _fraction
from genera.values import INF, Record, json_int, require_keys

# generator name -> (weight2, index2), from the table above
GRADINGS = {"a": (-2, 1), "phi01": (0, 2), "phi032": (0, 3), "phi02": (0, 4), "phi04": (0, 8)}

# z = 0 values of the weight-0 generators (weight-0 Jacobi forms restrict to
# constants on z = 0).
EV_CONSTANTS = {"phi01": 12, "phi032": 2, "phi02": 6, "phi04": 3}


def _check_parity(s: LaurentSeries, index2: int) -> None:
    """Raise ValueError unless every doubled y-exponent R of s has R == index2 (mod 2)."""
    for (n, R) in s.nums:
        for r in R:
            if (r - index2) % 2 != 0:
                raise ValueError(f"support parity broken at {(n, R)}: R != index2 (mod 2)")


class JacobiForm(Record):
    """The JSON record of a weak Jacobi form: a series tagged with (weight2, index2).

    `jf gen` and `genus compute` write one and `jf check` reads one. The
    constructor checks that there is an elliptic variable and the support
    parity; the tags are not carried through arithmetic.
    """
    __slots__ = ("weight2", "index2", "series")

    def __init__(self, weight2: int, index2: int, series: LaurentSeries):
        if series.nvars < 1:
            raise ValueError("a Jacobi form needs at least one elliptic variable")
        _check_parity(series, index2)
        super().__init__(weight2, index2, series)

    def to_obj(self) -> dict:
        return {"weight2": self.weight2, "index2": self.index2,
                **self.series.to_obj()}

    @classmethod
    def from_obj(cls, obj) -> "JacobiForm":
        require_keys(obj, "weight2", "index2")
        return cls(json_int("weight2", obj["weight2"]), json_int("index2", obj["index2"]),
                   LaurentSeries.from_obj(obj))


def _divided(s: LaurentSeries, d: int) -> LaurentSeries:
    """s / d for an integer d >= 1; raises unless the quotient is integral."""
    return _build(s.nvars, s.qmax, s.nums, s.den * d).as_integral()


def _lift(s: LaurentSeries, nvars: int) -> LaurentSeries:
    """View a pure q-series inside the nvars-variable ring."""
    if s.nvars != 0:
        raise ValueError("lift expects a series with no y-variables")
    zero = (0,) * nvars
    return _build(nvars, s.qmax, {(n, zero): c for (n, _), c in s.nums.items()}, s.den)


# ----------------------------------------------------------------------
# generators


def _theta_quotient(num: dict, den: LaurentSeries) -> LaurentSeries:
    """A finite theta-type sum in one y-variable over a pure q-series.

    num maps keys (n, (R,)) to coefficients, and keys above den.qmax are
    dropped; den has no y-variables and a nonzero constant term, so only
    the pure q-series recurrence of LaurentSeries.inverse is needed.
    """
    return LaurentSeries(1, den.qmax, num) * _lift(den.inverse(), 1)


def _theta_numerator(qmax: int, m: int = 1) -> dict:
    """Numerators of t(mz) up to q^qmax, where t is the theta sum

        t = sum_{n in Z} (-1)^n q^{n(n+1)/2} y^{(2n+1)/2},

    the numerator of a = t / eta3_sum (Jacobi triple product). t(mz) has
    every doubled y-exponent multiplied by m. The q^{n(n+1)/2} layer holds
    the two terms of n and -1-n; only O(sqrt(qmax)) layers are nonzero.
    """
    N = (math.isqrt(8 * qmax + 1) - 1) // 2  # the largest n >= 0 with n(n+1)/2 <= qmax
    return {(n * (n + 1) // 2, (m * (2 * n + 1),)): -1 if n % 2 else 1
            for n in range(-N - 1, N + 1)}


@lru_cache(maxsize=None)
def generator_a(qmax: int) -> LaurentSeries:
    """The odd generator of weight -2 and doubled index 1.

    a = (y^{1/2} - y^{-1/2}) prod_{m>=1} (1-q^m y)(1-q^m y^{-1}) / (1-q^m)^2
    is theta_1(z)/eta^3. The Jacobi triple product turns the numerator into a
    single sum and Jacobi's identity does the same for eta^3:

        a = sum_{n in Z} (-1)^n q^{n(n+1)/2} y^{(2n+1)/2}
            / sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}.

    Vanishes at z = 0; a(-z) = -a(z).
    """
    return _theta_quotient(_theta_numerator(qmax), modular.eta3_sum(qmax)).as_integral()


def _theta_divide(num: dict, qmax: int) -> LaurentSeries:
    """num / t up to q^qmax, for one-variable numerators num divisible by t.

    t = _theta_numerator(qmax) has the q^0 layer y^{1/2} - y^{-1/2}, so the
    quotient Q is found layer by layer in q: with P the q^k layer of num
    minus t's layers q^j (j >= 1) times Q's layers q^{k-j}, the q^k layer of
    Q solves P[R] = Q[R-1] - Q[R+1] in doubled exponents. Q[R-1] is then the
    running sum of P over R, R+2, R+4, ..., taken from the top down, and the
    division is exact only where each running sum ends at 0. A remainder is
    a ValueError.
    """
    by_layer: dict = {}  # the q^j layers of t for j >= 1, two terms each
    for (n, (R,)), c in _theta_numerator(qmax).items():
        if n:
            by_layer.setdefault(n, []).append((R, c))
    tail = sorted(by_layer.items())
    layers = [{} for _ in range(qmax + 1)]  # num's q^k layer until Q's replaces it
    for (n, (R,)), c in num.items():
        if n <= qmax:
            layers[n][R] = c
    nums = {}
    for k, P in enumerate(layers):
        for j, terms in tail:
            if j > k:
                break
            for r, c in layers[k - j].items():
                for R, d in terms:
                    P[r + R] = P.get(r + R, 0) - c * d
        Q = {}
        if P:
            acc = [0, 0]  # one running sum per parity of R
            for R in range(max(P), min(P) - 1, -1):
                acc[R & 1] += P.get(R, 0)
                if acc[R & 1]:
                    Q[R - 1] = acc[R & 1]
            if any(acc):
                raise ValueError(f"t does not divide the numerator: remainder at q^{k}")
        layers[k] = Q
        nums.update(((k, (R,)), c) for R, c in Q.items())
    return _build(1, qmax, nums)


# chi_12, the character of n mod 12 in the quintuple-product sum
_CHI12 = {1: 1, 11: 1, 5: -1, 7: -1}


@lru_cache(maxsize=None)
def _phi032(qmax: int) -> LaurentSeries:
    """a(2z)/a(z) = theta_1(2z)/theta_1(z): weight 0, doubled index 3, ev = 2.

    The quintuple product makes it a single sum over eta / q^{1/24}, which is
    Euler's pentagonal sum (V. Gritsenko, arXiv:math/9906190):

        phi032 = sum_{n in Z} chi_12(n) q^{(n^2-1)/24} y^{n/2}
                 / sum_{k in Z} (-1)^k q^{k(3k-1)/2}.
    """
    N = math.isqrt(24 * qmax + 1)
    num = {((n * n - 1) // 24, (n,)): _CHI12[n % 12]
           for n in range(-N, N + 1) if n % 12 in _CHI12}
    K = math.isqrt(qmax) + 1
    den = {(k * (3 * k - 1) // 2, ()): -1 if k % 2 else 1 for k in range(-K, K + 1)}
    return _theta_quotient(num, LaurentSeries(0, qmax, den)).as_integral()


@lru_cache(maxsize=None)
def _phi04(qmax: int) -> LaurentSeries:
    """a(3z)/a(z) = t(3z)/t(z): weight 0, doubled index 8, ev = 3.

    eta^3 cancels, so it is one sparse quotient of theta sums
    (V. Gritsenko, arXiv:math/9906190).
    """
    return _theta_divide(_theta_numerator(qmax, 3), qmax)


def z_taylor(series: LaurentSeries, i: int) -> LaurentSeries:
    """The x^i Taylor coefficient of f(z + x) for a one-variable f, y = e^z.

    It is D^i f / i! with D = y d/dy: the y^{R/2} term scaled by (R/2)^i / i!,
    so for i > 0 the R = 0 terms vanish.
    """
    nums = {(n, (R,)): c * R ** i for (n, (R,)), c in series.nums.items() if R or not i}
    return _build(1, series.qmax, nums, series.den * 2 ** i * math.factorial(i))


@lru_cache(maxsize=None)
def _theta_pieces(qmax: int) -> tuple:
    """(S0, S1, E2 S0, 1/eta3_sum^2), shared by phi01 and phi02, with
    S0 = t_0^2 and S1 = t_1^2 - 2 t_0 t_2, where t_i = z_taylor(t, i) for the
    theta sum t of _theta_numerator: products of sparse sums.
    """
    t0 = _build(1, qmax, _theta_numerator(qmax))
    t1, t2 = z_taylor(t0, 1), z_taylor(t0, 2)
    s0 = t0 * t0
    eta3 = modular.eta3_sum(qmax)
    return (s0, t1 * t1 - 2 * (t0 * t2), s0 * _lift(modular.e2(qmax), 1),
            (eta3 * eta3).inverse())


@lru_cache(maxsize=None)
def _phi01(qmax: int) -> LaurentSeries:
    """Weight 0, doubled index 2, ev = 12: phi01 = 12 * wp * a^2.

    wp, the Weierstrass function in units of (2 pi i)^2, is
    -D^2 log a + E2/12 with D = y d/dy (Eichler and Zagier, The Theory of
    Jacobi Forms, 1985, sec. 9). With a_i = z_taylor(a, i) = D^i a / i!,

        phi01 = 12 (a_1^2 - 2 a a_2) + E2 a^2 = (12 S1 + E2 S0) / eta3_sum^2,

    as a_i = t_i / eta3_sum (see _theta_pieces).
    """
    _, s1, e2s0, inv2 = _theta_pieces(qmax)
    return ((12 * s1 + e2s0) * _lift(inv2, 1)).as_integral()


@lru_cache(maxsize=None)
def _phi02(qmax: int) -> LaurentSeries:
    """Weight 0, doubled index 4, ev = 6: (phi01^2 - E4 a^4) / 24.

    With M = 12 S1 + E2 S0, the numerator of phi01, this is
    (M^2 - E4 S0^2) / (24 eta3_sum^4). Ramanujan's E2^2 - E4 = 12 q dE2/dq
    collects the pure q-series, so

        phi02 = (S1 (12 S1 + 2 E2 S0) + (q dE2/dq) S0^2) / (2 eta3_sum^4)

    and every y-dependent product has an operand built from sparse sums.
    """
    s0, s1, e2s0, inv2 = _theta_pieces(qmax)
    e2 = modular.e2(qmax)
    de2 = _build(0, qmax, {(n, R): n * c for (n, R), c in e2.nums.items() if n}, e2.den)
    num = s1 * (12 * s1 + 2 * e2s0) + s0 * (s0 * _lift(de2, 1))
    return _divided(num * _lift(inv2 * inv2, 1), 2)


def generator(name: str, qmax: int) -> LaurentSeries:
    """The generator named by a key of GRADINGS, which holds its grading."""
    builders = {"a": generator_a, "phi01": _phi01, "phi032": _phi032,
                "phi02": _phi02, "phi04": _phi04}
    if name not in builders:
        raise ValueError(f"unknown generator {name!r}; choose from {tuple(GRADINGS)}")
    if qmax < 0:  # here, so that no cached builder sees it
        raise ValueError(f"qmax must be >= 0, not {qmax}")
    return builders[name](qmax)


# ----------------------------------------------------------------------
# structural checks


class EllipticLawReport(Record):
    __slots__ = ("lam", "pairs_checked", "violations", "vacuous")

    @property
    def ok(self) -> bool:
        return not self.violations


def check_elliptic_law(s: LaurentSeries, index2: int, lam: int) -> EllipticLawReport:
    """Coefficient form of the index-m transformation law, for one lambda.

    s is a one-variable series whose support has the parity of index2 (a
    ValueError otherwise). With r = R/2 and m = index2/2, coefficients must
    satisfy

        c(n + lam*r + m*lam^2, r + 2*m*lam) = sign * c(n, r),

    where sign = (-1)^(index2 * lam) is the theta character; it is trivial
    for integral index (even index2) and alternates for half-integral index.
    Shifted keys with negative q-power count as coefficient zero; shifted
    keys beyond qmax are not checkable and are skipped. lam = 0 maps every
    coefficient onto itself and checks nothing, so it is a ValueError.
    """
    if s.nvars != 1:
        raise ValueError("elliptic law check is single-variable")
    if lam == 0:
        raise ValueError("lambda must be nonzero: lambda = 0 checks nothing")
    _check_parity(s, index2)
    sign = -1 if (index2 * lam) % 2 else 1

    def image(n, R, l):
        # the support parity makes the shift integral
        return n + (l * R + index2 * l * l) // 2, R + 2 * index2 * l

    # stored keys plus in-window preimages of stored keys: the latter catch a
    # nonzero target paired with an absent (zero) source. A source beyond
    # qmax is unknown, not zero, so it is never a candidate.
    nums = s.nums
    candidates = set()
    for (n, (R,)) in nums:
        candidates.add((n, R))
        pn, pR = image(n, R, -lam)
        if 0 <= pn <= s.qmax:
            candidates.add((pn, pR))

    # both sides are over the one den, so comparing numerators is exact; a
    # target with negative q-power is never stored and reads as zero
    checked = 0
    violations = []
    for (n, R) in sorted(candidates):
        n2, R2 = image(n, R, lam)
        if n2 > s.qmax:
            continue
        expected = sign * nums.get((n, (R,)), 0)
        got = nums.get((n2, (R2,)), 0)
        checked += 1
        if got != expected:
            violations.append((n, R, n2, R2, _fraction(expected, s.den), _fraction(got, s.den)))
    return EllipticLawReport(lam, checked, tuple(violations), checked == 0)


def is_even(s: LaurentSeries) -> bool:
    """True iff c(n, R) = c(n, -R) for every stored term (single variable)."""
    if s.nvars != 1:
        raise ValueError("evenness check is single-variable")
    nums = s.nums
    return all(nums.get((n, (-R,)), 0) == c for (n, (R,)), c in nums.items())


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


# Parts 2, 3, 4, 8 are the doubled indices of phi01, phi032, phi02, phi04;
# their z = 0 values 12, 2, 6, 3 carry these exponents of 2 and of 3.
_PARTS = (2, 3, 4, 8)
_TWOS = (2, 1, 1, 0)
_THREES = (1, 0, 1, 1)


# costs -> list whose entry t is the least cost of total t, None when no
# exponents reach t; each table grows only past the largest total asked for
_COIN_TABLES: dict[tuple, list] = {}


def _least_cost(k: int, costs: tuple) -> int | None:
    """Least sum of costs[i] * e_i over exponents with sum of _PARTS[i] * e_i = k.

    A min-cost coin problem, solved for every total 0..k in turn and kept for
    later calls; None when no exponents reach k.
    """
    if k < 0:
        return None
    best = _COIN_TABLES.setdefault(costs, [0])
    for total in range(len(best), k + 1):
        found = [best[total - p] + c for p, c in zip(_PARTS, costs)
                 if total >= p and best[total - p] is not None]
        best.append(min(found, default=None))
    return best[k]


def dclas_gcd_via_basis(k: int):
    """gcd of z=0 values over the weight-0 doubled-index-k monomial basis.

    The value 12^e1 2^e2 6^e3 3^e4 is 2^(2e1+e2+e3) 3^(e1+e3+e4), so the gcd
    is 2 and 3 raised to the least of those exponents over the basis, the
    exponents (e1, e2, e3, e4) of weight0_monomials(k). Each least exponent
    is a min-cost coin problem over the parts, so the basis is never listed.
    Returns INF, like d_clas(1), when no monomial exists, which happens
    exactly at k = 1: the space is 0, so only the Euler number 0 is allowed.
    """
    twos = _least_cost(k, _TWOS)
    if twos is None:
        return INF
    return 2 ** twos * 3 ** _least_cost(k, _THREES)
