"""Self-check registry: one entry per shipped claim.

Each criterion re-derives a published value or identity from scratch and
compares against the closed form the library exposes.  ``run_all`` prints one
PASS/FAIL line per criterion and returns the conjunction, so the CLI selftest
and the test suite share a single source of truth.

Criterion 7 is expected to fail: the claimed factor-two refinement
d_Sp(k) = 2 * d_clas(2k) breaks whenever 8 | k, because gcd(k,24) equals
2*gcd(k,12) exactly there.  The entry stays in the registry so the failure is
reported rather than papered over; see the companion corrected-relation test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, TextIO

from genera import cells, divis, genus, hodge, jacobi
from genera.series import _build, _ratio_str
from genera.values import INF


# a dataclass, not a values.Record: perfbench/tracer.py rebuilds it with dataclasses.replace
@dataclass(frozen=True)
class Criterion:
    num: int
    slug: str
    run: Callable[[], tuple[bool, str]]
    expected_fail: bool = False


def _crit_k3_genus() -> tuple[bool, str]:
    m = genus.ChernData.load("k3")
    got = genus.elliptic_genus(m, nvars=1, qmax=8)
    if got == 2 * jacobi.generator("phi01", 8):
        return True, "genus(K3) == 2*phi01 through q^8"
    return False, "genus(K3) != 2*phi01"


def _crit_quintic_genus() -> tuple[bool, str]:
    m = genus.ChernData.load("quintic")
    got = genus.elliptic_genus(m, nvars=1, qmax=8)
    if got == -100 * jacobi.generator("phi032", 8):
        return True, "genus(quintic) == -100*phi032 through q^8"
    return False, "genus(quintic) != -100*phi032"


def _crit_ev_constants() -> tuple[bool, str]:
    bad = []
    for name, expect in jacobi.EV_CONSTANTS.items():
        ev = jacobi.generator(name, 8).collapse_y()
        c0 = ev.nums.get((0, ()), 0)
        if c0 != expect * ev.den:
            bad.append(f"{name}: q^0 term {_ratio_str(c0, ev.den)} != {expect}")
            continue
        for n in range(1, 9):
            if (n, ()) in ev.nums:
                bad.append(f"{name}: ev not constant at q^{n}")
                break
    if bad:
        return False, "; ".join(bad)
    vals = tuple(jacobi.EV_CONSTANTS[n] for n in ("phi01", "phi032", "phi02", "phi04"))
    return True, f"ev constants {vals} and ev series constant through q^8"


def _crit_theta_multiplication() -> tuple[bool, str]:
    # a(mz) is a with every doubled y-exponent R replaced by m * R
    a = jacobi.generator("a", 8)
    bad = []
    for name, m in (("phi032", 2), ("phi04", 3)):
        a_mz = _build(1, a.qmax, {(n, (m * R,)): c for (n, (R,)), c in a.nums.items()}, a.den)
        if jacobi.generator(name, 8) * a != a_mz:
            bad.append(f"{name}*a != a({m}z)")
    if bad:
        return False, "; ".join(bad)
    return True, "phi032*a == a(2z) and phi04*a == a(3z) through q^8, a(mz) by y -> y^m"


def _crit_dclas_oracle() -> tuple[bool, str]:
    bad = []
    for k in range(1, 13):
        closed = divis.d_clas(k)
        basis = jacobi.dclas_gcd_via_basis(k)
        if closed != basis:
            bad.append(f"k={k}: closed {closed} vs basis gcd {basis}")
    if bad:
        return False, "; ".join(bad)
    return True, "d_clas matches basis-gcd oracle for k=1..12"


def _crit_nu_orders() -> tuple[bool, str]:
    table = cells.table_load("pi_S")
    bad = []
    for k in range(1, 49):
        got = cells.element_order(table, [(k, "nu")])
        want = 24 // math.gcd(k, 24)
        if got != want:
            bad.append(f"k={k}: {got} != {want}")
    if bad:
        return False, "; ".join(bad)
    return True, "order(k*nu) == 24/gcd(k,24) for k=1..48"


def _crit_dsp_refinement() -> tuple[bool, str]:
    bad = []
    for k in range(1, 25):
        lhs = divis.d_sp(k)
        rhs = 2 * divis.d_clas(2 * k)
        if lhs != rhs:
            bad.append(f"k={k}: d_sp={lhs}, 2*d_clas(2k)={rhs}")
    if bad:
        return False, (
            "claimed d_sp(k) == 2*d_clas(2k) fails at " + "; ".join(bad)
            + " (gcd(k,24) == 2*gcd(k,12) iff 8|k; see notes)"
        )
    return True, "d_sp(k) == 2*d_clas(2k) for k=1..24"


def _crit_dsu_easy() -> tuple[bool, str]:
    table, cofib = cells.table_load("pi_tmf"), cells.complex_load("tmf_mod_eta")
    bad = []
    for k in range(1, 25):
        got = cells.dsu_easy(k, table, cofib)
        want = divis.d_su_easy_closed(k)
        if got != want:
            bad.append(f"k={k}: engine {got} vs closed {want}")
            continue
        exact = divis.d_su(k)
        if got is not INF and exact is not INF and exact % got != 0:
            bad.append(f"k={k}: {got} does not divide d_su={exact}")
    if bad:
        return False, "; ".join(bad)
    return True, "cofiber computation matches closed form for k=1..24 and divides d_su"


def _crit_tmf_mod_nu_pi5() -> tuple[bool, str]:
    cplx = cells.complex_load("tmf_mod_nu")
    table = cells.table_load("pi_tmf")
    got = cells.cofiber_homotopy(cplx, table, 5)
    if got.ambiguous:
        return False, f"pi_5 ambiguous: {got.describe()}"
    if got.describe() == "Z/2":
        return True, "pi_5 of the nu-cofiber of tmf is Z/2"
    return False, f"pi_5 computed as {got.describe()}, expected Z/2"


def _crit_elliptic_law() -> tuple[bool, str]:
    k3, quintic = genus.ChernData.load("k3"), genus.ChernData.load("quintic")
    forms = [  # (label, series, index2)
        ("a", jacobi.generator("a", 8), 1),
        ("phi01", jacobi.generator("phi01", 8), 2),
        ("genus(K3)", genus.elliptic_genus(k3, nvars=1, qmax=8), 2),
        ("genus(quintic)", genus.elliptic_genus(quintic, nvars=1, qmax=8), 3),
    ]
    bad = []
    for label, f, index2 in forms:
        for lam in (1, -1):
            rep = jacobi.check_elliptic_law(f, index2, lam)
            if not rep.ok:
                bad.append(f"{label} lam={lam}: {len(rep.violations)} violations")
            elif rep.pairs_checked < 5:
                bad.append(f"{label} lam={lam}: only {rep.pairs_checked} pairs checked")
    if bad:
        return False, "; ".join(bad)
    return True, "elliptic transformation law holds for a, phi01, both genera at lambda=+-1 (>=5 pairs each)"


def _crit_k3_square() -> tuple[bool, str]:
    k3 = genus.ChernData.load("k3")
    prod = genus.chern_product(k3, k3)
    got = genus.elliptic_genus(prod, nvars=1, qmax=5)
    g = genus.elliptic_genus(k3, nvars=1, qmax=5)
    if got == g * g:
        return True, "genus(K3 x K3) == genus(K3)^2 through q^5"
    return False, "product genus disagrees with square of factor genus"


def _crit_evenness() -> tuple[bool, str]:
    k3 = genus.ChernData.load("k3")
    g = genus.elliptic_genus(k3, nvars=1, qmax=8)
    if jacobi.is_even(g):
        return True, "genus(K3) is even in y"
    return False, "genus(K3) not even in y"


def _crit_hodge() -> tuple[bool, str]:
    sys2 = hodge.hk_match(2)
    # the derived relation that `hk solve --k 2` prints
    rels = [hodge.relation_str(sys2.unknowns, row) for row in sys2.derived()]
    want = "8*h11 - 2*h12 - h22 + 64"
    if rels != [want]:
        return False, f"derived relations {rels}, expected {want}"
    divs = (
        hodge.hk_divisibility(2),
        hodge.hk_divisibility(3),
        hodge.hk_divisibility(2, use_parity=False),
    )
    if divs != (12, 8, 6):
        return False, f"divisors {divs} != (12, 8, 6)"
    witness = {"h11": 21, "h12": 0, "h22": 232, "Euler": 324}
    if not sys2.check(witness):
        return False, "known solution h11=21, h12=0, h22=232, Euler=324 rejected"
    return True, "h22 == 64 + 8*h11 - 2*h12; Euler divisors 12 / 8 / 6; witness accepted"


def _crit_ko() -> tuple[bool, str]:
    pattern = {0: 1, 1: INF, 2: 2, 3: INF}
    bad = []
    for k in range(1, 13):
        got = divis.d_ko(k)
        want = pattern[k % 4]
        if got != want:
            bad.append(f"k={k}: {got} != {want}")
    if bad:
        return False, "; ".join(bad)
    v = divis.euler_verdict("SO", 2, 2)
    if not v.ok:
        return False, f"SO verdict rejected euler=2 at k=2: {v.note}"
    v2 = divis.euler_verdict("SO", 2, 3)
    if v2.ok:
        return False, "SO verdict accepted euler=3 at k=2"
    return True, "d_ko pattern (1, inf, 2, inf) mod 4; SO verdict accepts 2 and rejects 3 at k=2"


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "k3-genus", _crit_k3_genus),
    Criterion(2, "quintic-genus", _crit_quintic_genus),
    Criterion(3, "ev-constants", _crit_ev_constants),
    Criterion(4, "theta-multiplication", _crit_theta_multiplication),
    Criterion(5, "dclas-oracle", _crit_dclas_oracle),
    Criterion(6, "nu-orders", _crit_nu_orders),
    Criterion(7, "dsp-refinement", _crit_dsp_refinement, expected_fail=True),
    Criterion(8, "dsu-easy", _crit_dsu_easy),
    Criterion(9, "tmf-mod-nu-pi5", _crit_tmf_mod_nu_pi5),
    Criterion(10, "elliptic-law", _crit_elliptic_law),
    Criterion(11, "k3-square", _crit_k3_square),
    Criterion(12, "evenness", _crit_evenness),
    Criterion(13, "hodge-relations", _crit_hodge),
    Criterion(14, "ko-divisibility", _crit_ko),
)


def run_all(stream: TextIO = sys.stdout) -> bool:
    """Run every criterion, print one line each, return the conjunction."""
    all_ok = True
    for crit in CRITERIA:
        try:
            ok, detail = crit.run()
        except Exception as exc:  # noqa: BLE001 - a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"{status} {crit.num:2d} {crit.slug}: {detail}", file=stream)
        all_ok = all_ok and ok
    return all_ok
