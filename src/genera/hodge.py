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

The ansatz is stored over one denominator: integer coefficient rows whose
values are den times the true ones. The matching scales each c_p by den
instead, so every relation row is built from integers alone.
"""

from __future__ import annotations

from math import gcd

from genera import _intlin, jacobi
from genera.values import Record


class HodgeError(ValueError):
    pass


EULER = "Euler"

# A relation over UNKNOWNS[k] is a row of numbers, one per unknown and then the
# constant term, meaning sum(row[i] * unknown[i]) + row[-1] = 0.
UNKNOWNS = {
    2: ("h11", "h12", "h22", EULER),
    3: ("h11", "h12", "h13", "h22", "h23", "h33", EULER, "A"),
}


def primitive(names: tuple, row) -> tuple:
    """The integer relation row divided by the gcd of its entries, signed so
    that its first nonzero coefficient in name order (the constant last) is
    positive; the zero row stays zero.

    >>> primitive(("x", "y"), (-6, 12, 2))
    (3, -6, -1)
    """
    g = gcd(*row)
    order = sorted(range(len(names)), key=names.__getitem__) + [len(names)]
    if g and next(row[i] for i in order if row[i]) < 0:
        g = -g
    return tuple(v // g for v in row) if g else tuple(row)


def relation_str(names: tuple, row) -> str:
    """The relation as text, terms in name order and the constant last.

    >>> system = hk_match(2)
    >>> [relation_str(system.unknowns, r) for r in system.eliminate(EULER)]
    ['8*h11 - 2*h12 - h22 + 64']
    """
    terms = [(c, name) for name, c in sorted(zip(names, row)) if c]
    if row[-1] or not terms:
        terms.append((row[-1], ""))
    out = ""
    for c, name in terms:
        mag = abs(c)
        body = str(mag) if not name else name if mag == 1 else f"{mag}*{name}"
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = f"{'-' if c < 0 else ''}{body}"
    return out


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


def cp_row(k: int, p: int) -> tuple:
    """The alternating sum c_p = sum_q (-1)^{p+q} h^{p,q} as a row over UNKNOWNS[k]."""
    names = UNKNOWNS[k]
    row = [0] * (len(names) + 1)
    for q in range(0, 2 * k + 1):
        sign = -1 if (p + q) % 2 else 1
        ent = hodge_entry(k, p, q)
        if isinstance(ent, int):
            row[-1] += sign * ent
        else:
            row[names.index(ent)] += sign
    return tuple(row)


def _row(k: int, constant, **coeffs) -> tuple:
    return tuple(coeffs.get(n, 0) for n in UNKNOWNS[k]) + (constant,)


def hk_ansatz(k: int) -> tuple:
    """The constrained genus ansatz as (den, pairs): (coefficient row, basis
    form) pairs in the weight-0 monomial basis, each row den times the true
    coefficients of the basis form.

    The extreme y-coefficient c_0 = k + 1 pins the leading basis coefficient;
    the remaining coefficients carry the Euler number (Euler/6 at k = 2,
    Euler/4 at k = 3, hence den) and, for k = 3, A, where the index-3 slot is
    completed by the square of the odd generator. The basis forms are
    integral. Only the q^0 layer is matched, so the forms are built at qmax 0.
    """
    if k == 2:
        p1 = jacobi.generator("phi01", 0)
        p2 = jacobi.generator("phi02", 0)
        return 6, (
            (_row(2, 18), p1 * p1),
            (_row(2, -432, Euler=1), p2),
        )
    if k == 3:
        p1 = jacobi.generator("phi01", 0)
        p2 = jacobi.generator("phi02", 0)
        p32 = jacobi.generator("phi032", 0)
        return 4, (
            (_row(3, 16), p1 * p1 * p1),
            (_row(3, 0, A=4), p1 * p2),
            (_row(3, -6912, Euler=1, A=-72), p32 * p32),
        )
    raise HodgeError(f"no ansatz for k = {k}; only k = 2 and 3 are worked out")


class HodgeSystem(Record):
    # equations: primitive relation rows over unknowns, each = 0; parities:
    # (row, modulus) pairs, each row's value = 0 mod modulus
    __slots__ = ("k", "unknowns", "equations", "parities")

    def eliminate(self, name: str, indices=None) -> tuple:
        """Equations with the named unknown eliminated against the first
        equation that contains it; identically-zero results are dropped.
        `indices` restricts the elimination to a subset of the equations."""
        chosen = self.equations if indices is None else tuple(self.equations[i] for i in indices)
        j = self.unknowns.index(name) if name in self.unknowns else None
        at = next((i for i, eq in enumerate(chosen) if j is not None and eq[j]), None)
        if at is None:
            return chosen
        pivot = chosen[at]
        out = []
        for eq in chosen[:at] + chosen[at + 1:]:
            reduced = [pivot[j] * a - eq[j] * b for a, b in zip(eq, pivot)]
            if any(reduced):
                row = primitive(self.unknowns, reduced)
                if row not in out:  # dependent equations collapse to copies
                    out.append(row)
        return tuple(out)

    def derived(self) -> tuple:
        """The relations `hk solve` adds to the equations: Euler eliminated at
        k = 2, A eliminated from equations 1 and 2 at k = 3."""
        if self.k == 2:
            rows = self.eliminate(EULER)
        else:
            rows = self.eliminate("A", indices=(1, 2))
        return tuple(row for row in rows if row not in self.equations)

    def check(self, assignment: dict) -> bool:
        """Whether an integer assignment satisfies all equations and parities."""
        for n in self.unknowns:
            if n not in assignment:
                raise HodgeError(f"no value for unknown {n!r}")
        point = [assignment[n] for n in self.unknowns] + [1]

        def value(row):
            return sum(c * v for c, v in zip(row, point))

        return (all(value(eq) == 0 for eq in self.equations)
                and all(value(row) % mod == 0 for row, mod in self.parities))


def hk_match(k: int) -> HodgeSystem:
    """Match q^0 y-coefficients of the ansatz against the c_p sums.

    Equations: c_p = (coefficient of y^{k-p}) for p = 1..k, and the Euler
    number as the full alternating sum.  The p = 0 match is constant and is
    asserted rather than stored.  Parities: 2 | h12 from 4 | b_3; for k = 3
    also 2 | h12 + h23 from 4 | b_5.
    """
    den, ansatz = hk_ansatz(k)
    names = UNKNOWNS[k]

    def match(p):
        # den times (c_p minus the ansatz's q^0 coefficient of y^{k-p}, doubled
        # exponent 2(k-p)); each basis form is integral, so c is its numerator
        key = (0, (2 * (k - p),))
        row = tuple(den * v for v in cp_row(k, p))
        for coeffs, form in ansatz:
            c = form.nums.get(key, 0)
            row = tuple(a - c * b for a, b in zip(row, coeffs))
        return row

    top = match(0)
    if any(top):
        raise HodgeError(f"leading coefficient mismatch at k = {k}: {relation_str(names, top)}")
    equations = [primitive(names, match(p)) for p in range(1, k + 1)]
    total = [sum(col) for col in zip(*(cp_row(k, p) for p in range(0, 2 * k + 1)))]
    total[names.index(EULER)] -= 1
    equations.append(primitive(names, total))
    parities = [(_row(k, 0, h12=1), 2)]
    if k == 3:
        parities.append((_row(k, 0, h12=1, h23=1), 2))
    return HodgeSystem(k, names, tuple(equations), tuple(parities))


def hk_divisibility(k: int, use_parity: bool = True) -> int:
    """The divisor of the Euler number forced by the integer solution set.

    Turns each parity fact into an equation with its own slack unknown and
    reads the achievable Euler values off the particular solution and the
    solution lattice of one echelon of the transposed equation rows.
    """
    system = hk_match(k)
    parities = system.parities if use_parity else ()
    m = len(parities)
    rows = [list(eq[:-1]) + [0] * m for eq in system.equations]
    rhs = [-eq[-1] for eq in system.equations]
    for i, (row, mod) in enumerate(parities):
        rows.append(list(row[:-1]) + [-mod if t == i else 0 for t in range(m)])
        rhs.append(-row[-1])
    solution = _intlin.solve([list(col) for col in zip(*rows)], rhs)
    if solution is None:
        raise HodgeError(f"no integer solutions for k = {k}")
    x0, kernel = solution
    ei = system.unknowns.index(EULER)
    g = gcd(x0[ei], *(v[ei] for v in kernel))
    if g == 0:
        raise HodgeError("Euler number vanishes identically; no divisor to report")
    return g
