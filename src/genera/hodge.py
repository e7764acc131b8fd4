"""Hodge-number consequences of the genus ansatz for irreducible hyperkahler
manifolds of complex dimension 2k, k = 2 or 3.

The genus of such a manifold is a weight-0 form of index k whose coefficients
in the monomial basis are pinned by h^{0,q} = 1 for even q and by the Euler
number; matching q^0 y-coefficients against the alternating sums

    c_p = sum_q (-1)^{p+q} h^{p,q}

under the symmetries h^{p,q} = h^{q,p} = h^{p,2k-q} yields a small linear
system over the independent Hodge numbers.  Integer elimination against the
parity facts 4 | b_3 (and 4 | b_5 for k = 3) then forces a divisor of the
Euler number: 12 for k = 2, 8 for k = 3.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from genera import _intlin, jacobi
from genera.values import Record


class HodgeError(ValueError):
    pass


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


class AffineExpr(Record):
    """Rational affine expression in named unknowns; zero terms are pruned."""
    __slots__ = ("constant", "terms")  # terms: ((name, Fraction), ...) sorted by name

    @staticmethod
    def build(constant=0, terms=None) -> "AffineExpr":
        cleaned = []
        for name, c in sorted((terms or {}).items()):
            c = _fr(c)
            if c:
                cleaned.append((name, c))
        return AffineExpr(_fr(constant), tuple(cleaned))

    @staticmethod
    def const(c) -> "AffineExpr":
        return AffineExpr.build(c)

    @staticmethod
    def var(name: str, coeff=1) -> "AffineExpr":
        return AffineExpr.build(0, {name: coeff})

    @property
    def names(self) -> tuple:
        return tuple(n for n, _c in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.constant and not self.terms

    def coeff(self, name: str) -> Fraction:
        for n, c in self.terms:
            if n == name:
                return c
        return Fraction(0)

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        acc = dict(self.terms)
        for n, c in other.terms:
            acc[n] = acc.get(n, Fraction(0)) + c
        return AffineExpr.build(self.constant + other.constant, acc)

    def __neg__(self) -> "AffineExpr":
        return self.scale(-1)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + (-other)

    def scale(self, c) -> "AffineExpr":
        c = _fr(c)
        return AffineExpr.build(self.constant * c, {n: v * c for n, v in self.terms})

    def evaluate(self, assignment: dict) -> Fraction:
        out = self.constant
        for n, c in self.terms:
            if n not in assignment:
                raise HodgeError(f"no value for unknown {n!r}")
            out += c * _fr(assignment[n])
        return out

    def normalized(self) -> "AffineExpr":
        """Integer-primitive representative with positive leading coefficient."""
        vals = [c for _n, c in self.terms] + ([self.constant] if self.constant else [])
        if not vals:
            return self
        mult = Fraction(lcm(*[v.denominator for v in vals]))
        nums = [abs((v * mult).numerator) for v in vals]
        mult /= gcd(*nums) if len(nums) > 1 else nums[0]
        lead = self.terms[0][1] if self.terms else self.constant
        if lead < 0:
            mult = -mult
        return self.scale(mult)

    def __str__(self) -> str:
        parts = []
        for n, c in self.terms:
            if not parts:
                head = "" if c == 1 else "-" if c == -1 else f"{c}*"
                parts.append(f"{head}{n}")
            else:
                sign = "-" if c < 0 else "+"
                mag = abs(c)
                body = n if mag == 1 else f"{mag}*{n}"
                parts.append(f"{sign} {body}")
        if self.constant or not parts:
            if not parts:
                parts.append(str(self.constant))
            else:
                sign = "-" if self.constant < 0 else "+"
                parts.append(f"{sign} {abs(self.constant)}")
        return " ".join(parts)


def hodge_entry(k: int, p: int, q: int):
    """h^{p,q} reduced by the symmetries: an int when known, else an unknown name.

    Representative orbit member has p <= q and minimal p; the p = 0 edge
    carries h^{0,q} = 1 for even q, 0 for odd q.
    """
    n = 2 * k
    if not (0 <= p <= n and 0 <= q <= n):
        raise HodgeError(f"Hodge index ({p},{q}) outside 0..{n}")
    orbit = set()
    for a, b in ((p, q), (q, p)):
        for aa in (a, n - a):
            for bb in (b, n - b):
                orbit.add((aa, bb))
    a, b = min((x, y) for x, y in orbit if x <= y)
    if a == 0:
        return 1 if b % 2 == 0 else 0
    return f"h{a}{b}"


def cp_expr(k: int, p: int) -> AffineExpr:
    """The alternating sum c_p = sum_q (-1)^{p+q} h^{p,q} over the unknowns."""
    out = AffineExpr.const(0)
    for q in range(0, 2 * k + 1):
        sign = -1 if (p + q) % 2 else 1
        ent = hodge_entry(k, p, q)
        if isinstance(ent, int):
            out = out + AffineExpr.const(sign * ent)
        else:
            out = out + AffineExpr.var(ent, sign)
    return out


class ParamForm(Record):
    """Weight-0 form with affine-expression coefficients on a monomial basis."""
    __slots__ = ("k", "qmax", "terms")  # terms: ((AffineExpr, JacobiForm), ...)

    def q0_coeff(self, R: int) -> AffineExpr:
        out = AffineExpr.const(0)
        for expr, form in self.terms:
            out = out + expr.scale(form.series.coeff(0, (R,)))
        return out

    def ev_expr(self) -> AffineExpr:
        out = AffineExpr.const(0)
        for expr, form in self.terms:
            out = out + expr.scale(jacobi.ev_z0(form).coeff(0))
        return out


EULER = "Euler"


def hk_ansatz(k: int, qmax: int = 2) -> ParamForm:
    """The constrained genus ansatz in the weight-0 monomial basis.

    The extreme y-coefficient c_0 = k + 1 pins the leading basis coefficient;
    the remaining coefficients carry the Euler number (and A for k = 3, where
    the index-3 slot is completed by the square of the odd generator).
    """
    e = AffineExpr.var(EULER)
    if k == 2:
        p1 = jacobi.generator("phi01", qmax)
        p2 = jacobi.generator("phi02", qmax)
        return ParamForm(
            2,
            qmax,
            (
                (AffineExpr.const(3), p1 * p1),
                (e.scale(Fraction(1, 6)) + AffineExpr.const(-72), p2),
            ),
        )
    if k == 3:
        p1 = jacobi.generator("phi01", qmax)
        p2 = jacobi.generator("phi02", qmax)
        p32 = jacobi.generator("phi032", qmax)
        a = AffineExpr.var("A")
        return ParamForm(
            3,
            qmax,
            (
                (AffineExpr.const(4), p1 * p1 * p1),
                (a, p1 * p2),
                (
                    e.scale(Fraction(1, 4)) + a.scale(-18) + AffineExpr.const(-1728),
                    p32 * p32,
                ),
            ),
        )
    raise HodgeError(f"no ansatz for k = {k}; only k = 2 and 3 are worked out")


_UNKNOWNS = {
    2: ("h11", "h12", "h22", EULER),
    3: ("h11", "h12", "h13", "h22", "h23", "h33", EULER, "A"),
}


class HodgeSystem(Record):
    # equations: AffineExprs, each = 0; parities: (AffineExpr, modulus) pairs,
    # each expr = 0 mod modulus
    __slots__ = ("k", "unknowns", "equations", "parities")

    def eliminate(self, name: str, indices=None) -> tuple:
        """Equations with the named unknown eliminated against the first
        equation that contains it; identically-zero results are dropped.
        `indices` restricts the elimination to a subset of the equations."""
        chosen = self.equations if indices is None else tuple(self.equations[i] for i in indices)
        pivot = None
        rest = []
        for eq in chosen:
            if pivot is None and eq.coeff(name):
                pivot = eq
            else:
                rest.append(eq)
        if pivot is None:
            return chosen
        pc = pivot.coeff(name)
        out = []
        for eq in rest:
            c = eq.coeff(name)
            reduced = eq - pivot.scale(c / pc) if c else eq
            if not reduced.is_zero:
                norm = reduced.normalized()
                if norm not in out:  # dependent equations collapse to copies
                    out.append(norm)
        return tuple(out)

    def check(self, assignment: dict) -> bool:
        """Whether an integer assignment satisfies all equations and parities."""
        for eq in self.equations:
            if eq.evaluate(assignment) != 0:
                return False
        for expr, mod in self.parities:
            v = expr.evaluate(assignment)
            if v.denominator != 1 or v.numerator % mod:
                return False
        return True


def hk_match(k: int, qmax: int = 2) -> HodgeSystem:
    """Match q^0 y-coefficients of the ansatz against the c_p sums.

    Equations: c_p = (coefficient of y^{k-p}) for p = 1..k, and the Euler
    number as the full alternating sum.  The p = 0 match is constant and is
    asserted rather than stored.  Parities: 2 | h12 from 4 | b_3; for k = 3
    also 2 | h12 + h23 from 4 | b_5.
    """
    ansatz = hk_ansatz(k, qmax)
    top = cp_expr(k, 0) - ansatz.q0_coeff(2 * k)
    if not top.is_zero:
        raise HodgeError(f"leading coefficient mismatch at k = {k}: {top}")
    equations = []
    for p in range(1, k + 1):
        # y-power k - p, doubled exponent 2(k - p)
        equations.append(cp_expr(k, p) - ansatz.q0_coeff(2 * (k - p)))
    total = AffineExpr.var(EULER, -1)
    for p in range(0, 2 * k + 1):
        total = total + cp_expr(k, p)
    equations.append(total)
    parities = [(AffineExpr.var("h12"), 2)]
    if k == 3:
        parities.append((AffineExpr.var("h12") + AffineExpr.var("h23"), 2))
    return HodgeSystem(k, _UNKNOWNS[k], tuple(equations), tuple(parities))


def _integer_rows(system: HodgeSystem, use_parity: bool):
    slack = [f"t{i + 1}" for i in range(len(system.parities))] if use_parity else []
    unknowns = list(system.unknowns) + slack
    rows, rhs = [], []

    def add_row(expr: AffineExpr):
        mult = lcm(*[c.denominator for c in [expr.constant, *(c for _n, c in expr.terms)]])
        row = [0] * len(unknowns)
        for n, c in expr.terms:
            row[unknowns.index(n)] = int(c * mult)
        rows.append(row)
        rhs.append(int(-expr.constant * mult))

    for eq in system.equations:
        add_row(eq)
    if use_parity:
        for i, (expr, mod) in enumerate(system.parities):
            add_row(expr + AffineExpr.var(f"t{i + 1}", -mod))
    return unknowns, rows, rhs


def hk_divisibility(k: int, use_parity: bool = True) -> int:
    """The divisor of the Euler number forced by the integer solution set.

    Clears denominators, turns each parity fact into a slack-variable
    equation, and reads the achievable Euler values off a particular solution
    plus the solution lattice.
    """
    system = hk_match(k)
    unknowns, rows, rhs = _integer_rows(system, use_parity)
    solved = _intlin.solve_affine(rows, rhs)
    if solved is None:
        raise HodgeError(f"no integer solutions for k = {k}")
    x0, kernel = solved
    ei = unknowns.index(EULER)
    g = abs(x0[ei])
    for v in kernel:
        g = gcd(g, abs(v[ei]))
    if g == 0:
        raise HodgeError("Euler number vanishes identically; no divisor to report")
    return g
