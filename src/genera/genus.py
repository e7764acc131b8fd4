"""Elliptic genera of almost-complex manifolds from Chern numbers.

The genus of M (complex dimension k) is the integral over M of a product of
one universal factor per Chern root x_j. With the Jacobi generator a, an odd
theta function of z with y = e^z, that factor is

    F(x) = x * a(z + x) / a(x)
         = y^{1/2} * x/(1-e^{-x}) * (1 - y^{-1} e^{-x})
           * prod_{m>=1} (1-q^m y e^x)(1-q^m y^{-1} e^{-x})
                       / ((1-q^m e^x)(1-q^m e^{-x})).

Its x-expansion needs no product: the Taylor coefficients of a(z + x) are
the y-derivatives of a, and their values at z = 0 expand a(x), whose
reciprocal gives x/a(x) (Hirzebruch, Berger and Jung, Manifolds and Modular
Forms, 1992). F(0) is a itself.

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
result, a plain series, has weight 0 and index2 = dimc in every variable (for
n = 1 this is the usual statement that the genus of a k-fold has index k/2).
"""

from __future__ import annotations

import json
from functools import lru_cache, reduce
from itertools import combinations, product
from operator import mul

from genera._data import resolve_data
from genera.values import Record, json_int, unique_keys

# the series layer is imported by the functions that build series, so loading
# Chern data or reading the Euler number does not load it


class ChernDataError(ValueError):
    pass


def parse_partition_key(key: str) -> tuple[int, ...]:
    # only the canonical spelling ("" for a point), so no two keys name one partition
    parts = tuple(int(p) for p in key.split(",") if p.isdecimal()) if key else ()
    if (",".join(map(str, parts)) != key or list(parts) != sorted(parts, reverse=True)
            or any(p < 1 for p in parts)):
        raise ChernDataError(f"bad partition key {key!r}: need descending positive parts, "
                             "written like '2,1,1'")
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


class ChernData(Record):
    """Chern numbers of a (stably almost) complex manifold.

    numbers maps every partition of dimc (descending tuples) to an integer;
    the entry for (l1, ..., lr) is the integral of c_{l1} ... c_{lr}. A
    missing partition is an error here, at load, for every caller.
    """
    __slots__ = ("label", "dimc", "numbers")

    def __init__(self, label: str, dimc: int, numbers: dict):
        if dimc < 0:
            raise ChernDataError("dimc must be >= 0")
        for parts, val in numbers.items():
            if sum(parts) != dimc:
                raise ChernDataError(
                    f"{label}: partition {parts} does not sum to dimc={dimc}")
            if not isinstance(val, int):
                raise ChernDataError(f"{label}: number for {parts} is not an integer")
        for parts in partitions(dimc):
            if parts not in numbers:
                key = ",".join(map(str, parts)) or "()"
                raise ChernDataError(f"{label}: missing Chern number for partition {key}")
        super().__init__(label, dimc, numbers)

    @classmethod
    def from_obj(cls, obj) -> "ChernData":
        raw = obj.get("numbers", {}) if isinstance(obj, dict) else None
        if not isinstance(raw, dict):
            raise ChernDataError("Chern data must be an object whose numbers are an object")
        try:
            numbers = {parse_partition_key(k): json_int(f"number for {k!r}", v)
                       for k, v in raw.items()}
            if "dimc" not in obj:
                raise ChernDataError("missing dimc")
            dimc = json_int("dimc", obj["dimc"])
        except ValueError as exc:
            raise ChernDataError(str(exc)) from None
        label = obj.get("label", "unnamed")
        if not isinstance(label, str):
            raise ChernDataError(f"label must be a JSON string, not {label!r}")
        return cls(label, dimc, numbers)

    @classmethod
    def load(cls, path) -> "ChernData":
        """Load a bundled data name or a path, as cells.table_load does."""
        with open(resolve_data(path)) as fh:
            try:
                obj = json.load(fh, object_pairs_hook=unique_keys)
            except ValueError as exc:  # malformed JSON or a repeated key
                raise ChernDataError(str(exc)) from None
        return cls.from_obj(obj)


def euler_number(M: ChernData) -> int:
    """The top Chern number: integral of c_dimc (1 for a point)."""
    return M.numbers[(M.dimc,) if M.dimc else ()]


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
        # each part p of lam splits as i + (p - i) over the two factors
        for left in product(*(range(p + 1) for p in lam)):
            if sum(left) == M.dimc:
                mu = tuple(sorted((i for i in left if i), reverse=True))
                nu = tuple(sorted((p - i for p, i in zip(lam, left) if p - i), reverse=True))
                total += M.numbers[mu] * N.numbers[nu]
        out[lam] = total
    return ChernData(f"{M.label}x{N.label}", k, out)


# ----------------------------------------------------------------------
# the universal factor as a polynomial in one Chern root


def _pmul(A: list, B: list, xdeg: int) -> list:
    zero = A[0] * 0
    out = []
    for d in range(xdeg + 1):
        acc = zero
        for i in range(max(0, d - len(B) + 1), min(d, len(A) - 1) + 1):
            acc = acc + A[i] * B[d - i]
        out.append(acc)
    return out


def factor_polynomial(qmax: int, xdeg: int) -> list[LaurentSeries]:
    """Coefficients [F_0, ..., F_xdeg] of F(x) = x * a(z + x) / a(x) in one root.

    The x^i coefficient a_i of a(z + x) is (y d/dy)^i a / i!, from
    jacobi.z_taylor. At y = 1 they give a(x) = x (1 + sum_j b_j x^j) with
    b_j = a_{j+1}, zero for odd j as a is odd, so the x^d coefficient of
    x/a(x) is the pure q-series E_0 = 1, E_d = -sum_{j = 2, 4, ..., d} b_j E_{d-j},
    and F = (the a_i) * E, in one elliptic variable. F_0 is the generator a,
    and F(x) = x at z = 0:

    >>> factor_polynomial(2, 3)[1].collapse_y()
    <series nvars=0 qmax=2: 1>
    >>> factor_polynomial(2, 3)[2].collapse_y()
    <series nvars=0 qmax=2: 0>
    """
    from genera.jacobi import _lift, generator_a, z_taylor

    a = generator_a(qmax)
    taylor = [z_taylor(a, i) for i in range(xdeg + 2)]
    b = [t.collapse_y() for t in taylor[1:]]
    # E_0 = 1 is never multiplied: its terms are b_d and a_d themselves (b_d = 0 for odd d)
    E = [None]
    for d in range(1, xdeg + 1):
        E.append(-sum((b[j] * E[d - j] for j in range(2, d, 2)), b[d]))
    lifted = [None] + [_lift(e, 1) for e in E[1:]]
    return [sum((taylor[i] * lifted[d - i] for i in range(d)), taylor[d])
            for d in range(xdeg + 1)]


# ----------------------------------------------------------------------
# the integrand in the monomial symmetric basis, paired with Chern numbers


@lru_cache(maxsize=None)
def integrand_expansion(dimc: int, nvars: int = 1, qmax: int = 10) -> dict:
    """Universal genus integrand for dimension dimc, in the monomial basis.

    Maps each partition lam of dimc to the series coefficient of m_lam in
    the degree-dimc part of prod_j Phi(x_j), where Phi is the universal
    factor multiplied over the nvars elliptic variables: the one-variable
    factor is built once and embedded in each slot.
    """
    from genera.series import LaurentSeries

    factor = factor_polynomial(qmax, dimc)
    phi = [f.embed(nvars, 0) for f in factor]
    for i in range(1, nvars):
        phi = _pmul(phi, [f.embed(nvars, i) for f in factor], dimc)
    powers = [phi[0]]  # powers[j - 1] = F_0^j; F_0^0 = 1 is never multiplied in
    for _ in range(dimc - 2):
        powers.append(powers[-1] * phi[0])
    out = {}
    for lam in partitions(dimc):
        rest = dimc - len(lam)
        factors = [phi[p] for p in lam]
        if rest:
            factors.insert(0, powers[rest - 1])
        out[lam] = reduce(mul, factors) if factors else LaurentSeries.one(nvars, qmax)
    return out


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
    """The integers int_M m_lam for every partition lam of dimc."""
    out: dict = {}
    for lam in sorted(partitions(M.dimc)):
        conj = tuple(sum(1 for p in lam if p > i) for i in range(max(lam, default=0)))
        out[lam] = M.numbers[conj] - sum(
            _zero_one_matrices(conj, nu) * v for nu, v in out.items())
    return out


def elliptic_genus(M: ChernData, nvars: int = 1, qmax: int = 10) -> LaurentSeries:
    """The elliptic genus of M, a series in nvars elliptic variables.

    Its grading is weight 0 and index2 = dimc in each variable, and its
    support has the parity of dimc. It obeys the elliptic transformation law
    of that index only when every Chern number with a c1 factor is zero
    (rationally, SU data). Otherwise it is no Jacobi form: for dimc 1 and
    c1 = 1 it is (y^{1/2} + y^{-1/2})/2, which breaks the law.
    """
    if nvars < 1:
        raise ValueError(f"nvars must be >= 1, not {nvars}")
    if qmax < 0:
        raise ValueError(f"qmax must be >= 0, not {qmax}")
    from genera.series import LaurentSeries

    integrals = _monomial_integrals(M)
    integrand = integrand_expansion(M.dimc, nvars, qmax)
    s = LaurentSeries.zero(nvars, qmax)
    for lam, n in integrals.items():
        s = s + integrand[lam] * n
    return s
