"""Elliptic genera of almost-complex manifolds from Chern numbers.

The genus of M (complex dimension k) is the integral over M of a product of
one universal factor per Chern root x_j. With the Jacobi generator a, an odd
theta function of z with y = e^z, that factor is

    F(x) = x * a(z + x) / a(x)
         = y^{1/2} * x/(1-e^{-x}) * (1 - y^{-1} e^{-x})
           * prod_{m>=1} (1-q^m y e^x)(1-q^m y^{-1} e^{-x})
                       / ((1-q^m e^x)(1-q^m e^{-x})).

Its x-expansion needs no product: the Taylor coefficients of a(z + x) are
the y-derivatives of a, and x/a(x) = exp(sum_{k>=1} 2 G_2k x^2k / (2k)!) with
the Eisenstein series G_2k = -B_2k/(4k) + sum_n sigma_{2k-1}(n) q^n
(Zagier, Invent. Math. 104, 1991; Hirzebruch, Berger and Jung, Manifolds
and Modular Forms, 1992). F(0) is a itself.

With F(x) = sum_d F_d x^d, the degree-k part of prod_{j=1}^k F(x_j) has,
on the monomial symmetric function m_lam of a partition lam of k with
l(lam) parts, the coefficient

    F_0^{k - l(lam)} * prod_i F_{lam_i},

since each monomial of m_lam takes F_{lam_i} from l(lam) roots and F_0 from
the others. The genus pairs these series with the integers int_M m_lam. The
Chern numbers are c_mu = int_M e_mu, and e_mu = sum_lam N(mu, lam) m_lam,
where N(mu, lam) counts 0-1 matrices with row sums mu and column sums lam
(Macdonald, Symmetric Functions and Hall Polynomials, ch. I, sec. 6). For the
conjugate partition lam', N(lam', lam) = 1 and N(lam', nu) != 0 only for
nu <= lam in dominance, hence lexicographic, order. Solving for int_M m_lam
in increasing lexicographic order of lam is thus triangular over the
integers and needs no division.

With n elliptic variables the same factor appears once per variable and the
result has index2 = dimc in every variable (for n = 1 this is the usual
statement that the genus of a k-fold has index k/2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial
from operator import mul

from genera.jacobi import JacobiForm, generator_a
from genera.modular import sigma
from genera.series import LaurentSeries


class ChernDataError(ValueError):
    pass


def partition_key(parts: tuple[int, ...]) -> str:
    return ",".join(str(p) for p in parts)


def parse_partition_key(key: str) -> tuple[int, ...]:
    if key == "":
        return ()
    parts = tuple(int(p) for p in key.split(","))
    if list(parts) != sorted(parts, reverse=True) or any(p < 1 for p in parts):
        raise ChernDataError(f"bad partition key {key!r}: need descending positive parts")
    return parts


def partitions(n: int, max_part: int | None = None):
    """Partitions of n with parts <= max_part, descending tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def _json_int(what: str, value) -> int:
    # bool is a subclass of int, and int() would silently truncate floats
    if type(value) is not int:
        raise ChernDataError(f"{what} must be a JSON integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ChernData:
    """Chern numbers of a (stably almost) complex manifold.

    numbers maps partitions of dimc (descending tuples) to integers; the
    entry for (l1, ..., lr) is the integral of c_{l1} ... c_{lr}.
    """
    label: str
    dimc: int
    numbers: dict

    def __post_init__(self):
        if self.dimc < 0:
            raise ChernDataError("dimc must be >= 0")
        for parts, val in self.numbers.items():
            if sum(parts) != self.dimc:
                raise ChernDataError(
                    f"{self.label}: partition {parts} does not sum to dimc={self.dimc}")
            if not isinstance(val, int):
                raise ChernDataError(f"{self.label}: number for {parts} is not an integer")

    def number(self, parts: tuple[int, ...]) -> int:
        if parts not in self.numbers:
            raise ChernDataError(
                f"{self.label}: missing Chern number for partition {partition_key(parts) or '()'}")
        return self.numbers[parts]

    def to_obj(self) -> dict:
        return {
            "label": self.label,
            "dimc": self.dimc,
            "numbers": {partition_key(p): v for p, v in sorted(self.numbers.items())},
        }

    @classmethod
    def from_obj(cls, obj) -> "ChernData":
        raw = obj.get("numbers", {}) if isinstance(obj, dict) else None
        if not isinstance(raw, dict):
            raise ChernDataError("Chern data must be an object whose numbers are an object")
        numbers = {parse_partition_key(k): _json_int(f"number for {k!r}", v)
                   for k, v in raw.items()}
        if "dimc" not in obj:
            raise ChernDataError("missing dimc")
        return cls(str(obj.get("label", "unnamed")), _json_int("dimc", obj["dimc"]), numbers)

    @classmethod
    def load(cls, path) -> "ChernData":
        with open(path) as fh:
            return cls.from_obj(json.load(fh))


def euler_number(M: ChernData) -> int:
    """The top Chern number: integral of c_dimc (1 for a point)."""
    return M.number((M.dimc,) if M.dimc else ())


def chern_product(M: ChernData, N: ChernData) -> ChernData:
    """Chern numbers of the product manifold M x N.

    Uses c_t(M x N) = c_t(M) c_t(N): each part l of a partition of
    dimc(M) + dimc(N) splits as i + j over the two factors, and only splits
    with total i-degree dimc(M) survive integration.
    """
    k = M.dimc + N.dimc
    out: dict = {}
    for lam in partitions(k):
        total = 0
        # distribute each part between the factors
        def walk(idx, left, right):
            nonlocal total
            if idx == len(lam):
                if sum(left) == M.dimc and sum(right) == N.dimc:
                    mu = tuple(sorted((p for p in left if p), reverse=True))
                    nu = tuple(sorted((p for p in right if p), reverse=True))
                    total += M.number(mu) * N.number(nu)
                return
            for i in range(0, lam[idx] + 1):
                walk(idx + 1, left + [i], right + [lam[idx] - i])
        walk(0, [], [])
        out[lam] = total
    return ChernData(f"{M.label}x{N.label}", k, out)


# ----------------------------------------------------------------------
# the universal factor as a polynomial in one Chern root


def _todd_coeffs(xdeg: int) -> list[Fraction]:
    """Taylor coefficients of x/(1 - e^{-x}) up to x^xdeg."""
    # invert u(x) = (1 - e^{-x})/x = sum (-1)^d x^d/(d+1)!
    u = []
    fact = 1
    for d in range(xdeg + 1):
        fact *= d + 1
        u.append(Fraction((-1) ** d, fact))
    t = [Fraction(1)]
    for d in range(1, xdeg + 1):
        t.append(-sum(u[j] * t[d - j] for j in range(1, d + 1)))
    return t


def _pmul(A: list, B: list, xdeg: int) -> list:
    zero = A[0] * 0
    out = []
    for d in range(xdeg + 1):
        acc = zero
        for i in range(max(0, d - len(B) + 1), min(d, len(A) - 1) + 1):
            acc = acc + A[i] * B[d - i]
        out.append(acc)
    return out


def factor_polynomial(qmax: int, xdeg: int, nvars: int = 1, slot: int = 0) -> list[LaurentSeries]:
    """Coefficients [F_0, ..., F_xdeg] of F(x) = x * a(z + x) / a(x) in one root.

    The x^i coefficient of a(z + x) is (y d/dy)^i a / i!: the y^{R/2} term of
    a scaled by (R/2)^i / i!. The x^d coefficient E_d of x/a(x) is a pure
    q-series; with K_d = 2 G_d / (d-1)! for even d and K_d = 0 for odd d,
    the exponential gives d * E_d = sum_{i=1}^d K_i * E_{d-i}, and
    F = (the shifts of a) * E. The elliptic variable sits in the given slot
    of an nvars-variable ring; F_0 is exactly the generator a in that slot.
    """
    if nvars < 1 or not 0 <= slot < nvars:
        raise ValueError("need nvars >= 1 and a valid slot")
    a = generator_a(qmax).series
    shifts = [LaurentSeries(1, qmax, {
        (n, (r,)): c * Fraction(r, 2) ** i / factorial(i) for (n, (r,)), c in a.coeffs.items()
    }).embed(nvars, slot) for i in range(xdeg + 1)]

    zero = (0,) * nvars
    todd = _todd_coeffs(xdeg)
    K = {}
    E = [LaurentSeries.one(nvars, qmax)]
    for d in range(1, xdeg + 1):
        if d % 2 == 0:
            coeffs = {(n, zero): Fraction(2 * sigma(d - 1, n), factorial(d - 1))
                      for n in range(1, qmax + 1)}
            coeffs[(0, zero)] = -todd[d]  # 2 * (-B_d/(2d)) / (d-1)!, B_d = d! * todd[d]
            K[d] = LaurentSeries(nvars, qmax, coeffs)
        E.append(sum((K[i] * E[d - i] for i in range(2, d + 1, 2)),
                     LaurentSeries.zero(nvars, qmax)) * Fraction(1, d))
    return _pmul(shifts, E, xdeg)


# ----------------------------------------------------------------------
# the integrand in the monomial symmetric basis, paired with Chern numbers


@lru_cache(maxsize=None)
def integrand_expansion(dimc: int, nvars: int = 1, qmax: int = 10) -> dict:
    """Universal genus integrand for dimension dimc, in the monomial basis.

    Maps each partition lam of dimc to the series coefficient of m_lam in
    the degree-dimc part of prod_j Phi(x_j), where Phi is the universal
    factor multiplied over the nvars elliptic variables.
    """
    phi = factor_polynomial(qmax, dimc, nvars=nvars, slot=0)
    for i in range(1, nvars):
        phi = _pmul(phi, factor_polynomial(qmax, dimc, nvars=nvars, slot=i), dimc)
    powers = [LaurentSeries.one(nvars, qmax)]
    for _ in range(dimc - 1):
        powers.append(powers[-1] * phi[0])
    return {lam: reduce(mul, (phi[p] for p in lam), powers[dimc - len(lam)])
            for lam in partitions(dimc)}


@lru_cache(maxsize=None)
def _zero_one_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Number of 0-1 matrices with the given row sums and column sums.

    The two sums must have the same total, so no column is left over when
    the rows run out.
    """
    if not rows:
        return 1
    total = 0
    for ones in combinations(range(len(cols)), rows[0]):
        if all(cols[j] for j in ones):
            rest = sorted((c - (j in ones) for j, c in enumerate(cols)), reverse=True)
            total += _zero_one_matrices(rows[1:], tuple(rest))
    return total


def _monomial_integrals(M: ChernData) -> dict:
    """The integers int_M m_lam for every partition lam of dimc >= 1."""
    out: dict = {}
    for lam in sorted(partitions(M.dimc)):
        conj = tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))
        out[lam] = M.number(conj) - sum(
            _zero_one_matrices(conj, nu) * v for nu, v in out.items())
    return out


def elliptic_genus(M: ChernData, nvars: int = 1, qmax: int = 10) -> JacobiForm:
    """The elliptic genus of M as a weak Jacobi form.

    Weight 0; index2 = dimc in each of the nvars elliptic variables.
    Raises ChernDataError if a needed Chern number is absent.
    """
    if M.dimc == 0:
        s = LaurentSeries.const(max(nvars, 1), qmax, M.number(()))
        return JacobiForm(0, 0, s)
    integrals = _monomial_integrals(M)
    integrand = integrand_expansion(M.dimc, nvars, qmax)
    s = LaurentSeries.zero(nvars, qmax)
    for lam, n in integrals.items():
        s = s + integrand[lam] * n
    return JacobiForm(0, M.dimc, s)
