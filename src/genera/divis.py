"""Euler-number divisibility constants for four structure families.

Closed forms:

    d_clas(1) = inf, d_clas(2k') = 12/gcd(k', 12), d_clas(2k'+3) = 24/gcd(k', 12)
    d_su(1)   = inf, d_su(k) = 2^alpha(k) 3^beta(k)   (case tables below)
    d_sp(k)   = 24/gcd(k, 24)
    d_ko(k)   = 1, inf, 2, inf  for k = 0, 1, 2, 3 (mod 4)

d_su also has a self-contained "easy" estimate, equal to the exact table
except for k = 2 (mod 8), k >= 10, where it is exactly half. Infinite values
are the explicit INF singleton; INF divides only 0.
"""

from __future__ import annotations

from math import gcd

from genera.values import INF, Record, divides, value_str


# ----------------------------------------------------------------------
# closed forms


def d_clas(k: int):
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return INF
    if k % 2 == 0:
        return 12 // gcd(k // 2, 12)
    return 24 // gcd((k - 3) // 2, 12)


# exponent of 2 in d_su(k), by k mod 8; the easy estimate differs only at
# residue 2, where it gives 2 instead of 3
_ALPHA = {1: 3, 2: 3, 5: 3, 6: 2, 7: 2, 3: 1, 4: 1, 0: 0}
_ALPHA_EASY = {**_ALPHA, 2: 2}
# exponent of 3, by k mod 3
_BETA = {1: 1, 2: 1, 0: 0}


def d_su(k: int):
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return INF
    return 2 ** _ALPHA[k % 8] * 3 ** _BETA[k % 3]


def d_su_easy_closed(k: int):
    """The easy estimate's closed form: k=2 is saturated at 24 directly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return INF
    if k == 2:
        return 24
    return 2 ** _ALPHA_EASY[k % 8] * 3 ** _BETA[k % 3]


def d_sp(k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    return 24 // gcd(k, 24)


def d_ko(k: int):
    if k < 1:
        raise ValueError("k must be >= 1")
    r = k % 4
    if r == 0:
        return 1
    if r == 2:
        return 2
    return INF


# ----------------------------------------------------------------------
# reports


class DivReport(Record):
    __slots__ = ("kind", "k", "value", "sources", "agreement")

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "k": str(self.k),
            "value": value_str(self.value),
            "sources": [[m, value_str(v)] for m, v in self.sources],
            "agreement": self.agreement,
        }


def d_clas_report(k: int) -> DivReport:
    from genera import jacobi  # loads the series layer, which nothing else here needs

    closed = d_clas(k)
    basis = jacobi.dclas_gcd_via_basis(k)
    return DivReport("clas", k, closed, (("closed_form", closed), ("basis_gcd", basis)),
                     closed == basis)


# ----------------------------------------------------------------------
# verdicts


class Verdict(Record):
    # constant: int, INF, or None when no constraint applies
    __slots__ = ("structure", "k", "constant", "divides", "note")

    @property
    def ok(self) -> bool:
        return self.divides

    def to_obj(self) -> dict:
        return {
            "structure": self.structure,
            "k": str(self.k),
            "constant": "none" if self.constant is None else value_str(self.constant),
            "divides": self.divides,
            "note": self.note,
        }


def euler_verdict(structure: str, k: int, euler: int) -> Verdict:
    """Divisibility verdict for the Euler number of a closed manifold.

    SU: strict SU k-folds (complex dimension k); k = 1 forces Euler = 0.
    Sp: Sp(k)-manifolds (quaternionic dimension k), constant 24/gcd(k,24).
    SO: oriented, k the REAL dimension; constant 2 when k = 2 (mod 4),
        no constraint otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if structure == "SU":
        if k == 1:
            ok = euler == 0
            return Verdict(structure, k, INF, ok,
                           "strict SU 1-folds have Euler number 0")
        d = d_su(k)
        return Verdict(structure, k, d, divides(d, euler),
                       f"Euler must be divisible by d_su({k}) = {d}")
    if structure == "Sp":
        d = d_sp(k)
        return Verdict(structure, k, d, divides(d, euler),
                       f"Euler must be divisible by d_sp({k}) = {d}")
    if structure == "SO":
        if k % 4 == 2:
            return Verdict(structure, k, 2, euler % 2 == 0,
                           "oriented closed manifolds of dimension 2 mod 4 have even Euler number")
        return Verdict(structure, k, None, True,
                       "no constraint at this dimension")
    raise ValueError(f"unknown structure {structure!r}; choose SU, Sp, or SO")


# ----------------------------------------------------------------------
# tabulation for the CLI


TABLE_COLUMNS = ("k", "d_clas", "d_su_exact", "d_su_easy", "d_sp", "d_ko")


def table_rows(kmax: int) -> list[dict]:
    rows = []
    for k in range(1, kmax + 1):
        rows.append({
            "k": str(k),
            "d_clas": value_str(d_clas(k)),
            "d_su_exact": value_str(d_su(k)),
            "d_su_easy": value_str(d_su_easy_closed(k)),
            "d_sp": value_str(d_sp(k)),
            "d_ko": value_str(d_ko(k)),
        })
    return rows


def verify_clas_rows(kmax: int) -> list[dict]:
    """Closed form vs basis-gcd oracle, one row per k."""
    rows = []
    for k in range(1, kmax + 1):
        rep = d_clas_report(k)
        rows.append({
            "k": str(k),
            "closed_form": value_str(rep.sources[0][1]),
            "basis_gcd": value_str(rep.sources[1][1]),
            "agree": "yes" if rep.agreement else "no",
        })
    return rows
