"""Generator expansions, the elliptic transformation law, and the z=0 story."""

import copy
import functools
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genera import jacobi
from genera.series import LaurentSeries
from genera.values import INF, value_str

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# q^0 and q^1 layers of the five generators, doubled y-exponent -> coefficient.
FROZEN_LAYERS = {
    "a": (
        {1: 1, -1: -1},
        {3: -1, 1: 3, -1: -3, -3: 1},
    ),
    "phi01": (
        {2: 1, 0: 10, -2: 1},
        {4: 10, 2: -64, 0: 108, -2: -64, -4: 10},
    ),
    "phi032": (
        {1: 1, -1: 1},
        {5: -1, 1: 1, -1: 1, -5: -1},
    ),
    "phi02": (
        {2: 1, 0: 4, -2: 1},
        {6: 1, 4: -8, 2: -1, 0: 16, -2: -1, -4: -8, -6: 1},
    ),
    "phi04": (
        {2: 1, 0: 1, -2: 1},
    ),
}

GRADINGS = {
    "a": (-2, 1),
    "phi01": (0, 2),
    "phi032": (0, 3),
    "phi02": (0, 4),
    "phi04": (0, 8),
}


@pytest.mark.parametrize("name", jacobi.GRADINGS)
def test_frozen_layers(name):
    f = jacobi.generator(name, 4)
    for n, layer in enumerate(FROZEN_LAYERS[name]):
        assert f.q_layer(n) == {(r,): c for r, c in layer.items()}, (name, n)


@pytest.mark.parametrize("name", jacobi.GRADINGS)
def test_gradings(name):
    assert jacobi.GRADINGS[name] == GRADINGS[name]
    assert jacobi.generator(name, 2).is_integral


@pytest.mark.parametrize("name", jacobi.GRADINGS)
def test_generators_have_the_support_parity_of_their_index(name):
    # no generator passes through the JacobiForm parity check on its own
    for qmax in range(13):
        s = jacobi.generator(name, qmax)
        assert jacobi.JacobiForm(*jacobi.GRADINGS[name], s).series is s


def test_generator_rejects_unknown_name():
    with pytest.raises(ValueError):
        jacobi.generator("phi05", 2)


@pytest.mark.parametrize("name", jacobi.GRADINGS)
def test_generator_rejects_negative_qmax_before_its_cached_builder(name):
    builders = (jacobi.generator_a, jacobi._phi01, jacobi._phi032, jacobi._phi02,
                jacobi._phi04, jacobi._theta_pieces)
    before = [b.cache_info() for b in builders]
    with pytest.raises(ValueError, match="qmax must be >= 0"):
        jacobi.generator(name, -1)
    assert [b.cache_info() for b in builders] == before


def test_ev_constants():
    for name, want in jacobi.EV_CONSTANTS.items():
        ev = jacobi.generator(name, 6).collapse_y()
        assert ev.coeff(0) == want
        for n in range(1, 7):
            assert ev.coeff(n) == 0, (name, n)


def test_ev_of_a_vanishes():
    ev = jacobi.generator("a", 6).collapse_y()
    assert all(ev.coeff(n) == 0 for n in range(7))


# ---------------------------------------------------------------- references
# The infinite-product formulas for a and phi032, kept as the reference for
# the theta-sum constructions in genera.jacobi.


def _product_side(qmax, t):
    """prod_{m>=1} (1 - q^m y^t)(1 - q^m y^-t), truncated at q^qmax."""
    out = LaurentSeries.one(1, qmax)
    for m in range(1, qmax + 1):
        out = out * LaurentSeries(1, qmax, {(0, (0,)): 1, (m, (2 * t,)): -1,
                                            (m, (-2 * t,)): -1, (2 * m, (0,)): 1})
    return out


def _euler_factor_sq_inv(qmax):
    """[prod_{m>=1} (1 - q^m)^2]^{-1}, with no y-support."""
    prod = LaurentSeries.one(1, qmax)
    for m in range(1, qmax + 1):
        prod = prod * LaurentSeries(1, qmax, {(0, (0,)): 1, (m, (0,)): -2, (2 * m, (0,)): 1})
    return prod.inverse()


def _half_monomials(qmax, sign):
    """y^{1/2} + sign * y^{-1/2}."""
    return (LaurentSeries.monomial(1, qmax, 0, (1,))
            + sign * LaurentSeries.monomial(1, qmax, 0, (-1,)))


def _a_at(m, qmax):
    """a(mz): every doubled y-exponent R of a replaced by m * R."""
    a = jacobi.generator("a", qmax)
    return LaurentSeries(1, qmax, {(n, (m * R,)): c for (n, (R,)), c in a.coeffs.items()})


def _lattice_quotient(num, den, qmax):
    """sum num / sum den for lattice sums num (keyed (n, R)) and den (keyed n)."""
    den = LaurentSeries(1, qmax, {(n, (0,)): c for n, c in den.items()})
    return LaurentSeries(1, qmax, {(n, (R,)): c for (n, R), c in num.items()}) * den.inverse()


def _theta2_quotient(qmax):
    """theta_2(z)^2 / theta_2(0)^2: the q^{1/4} prefactor cancels, so the
    exponents (n(n+1) + m(m+1))/2 are integers."""
    N = math.isqrt(2 * qmax) + 2
    num, den = {}, {}
    for n, m in itertools.product(range(-N, N + 1), repeat=2):
        e = (n * (n + 1) + m * (m + 1)) // 2
        num[e, 2 * (n + m + 1)] = num.get((e, 2 * (n + m + 1)), 0) + 1
        den[e] = den.get(e, 0) + 1
    return _lattice_quotient(num, den, qmax)


def _theta34_quotients(qmax):
    """theta_3(z)^2/theta_3(0)^2 + theta_4(z)^2/theta_4(0)^2.

    Both live on the Q = q^{1/2} grid; theta_4 is theta_3 at Q -> -Q, so the
    odd Q-powers cancel in the sum, which is asserted before halving them.
    """
    Qmax = 2 * qmax + 1
    N = math.isqrt(Qmax) + 2
    b, b0, c, c0 = {}, {}, {}, {}
    for n, m in itertools.product(range(-N, N + 1), repeat=2):
        e, sgn = n * n + m * m, (-1) ** (n + m)
        b[e, 2 * (n + m)] = b.get((e, 2 * (n + m)), 0) + 1
        c[e, 2 * (n + m)] = c.get((e, 2 * (n + m)), 0) + sgn
        b0[e] = b0.get(e, 0) + 1
        c0[e] = c0.get(e, 0) + sgn
    S = _lattice_quotient(b, b0, Qmax) + _lattice_quotient(c, c0, Qmax)
    assert all(e % 2 == 0 for (e, _R) in S.coeffs)
    return LaurentSeries(1, qmax, {(e // 2, R): v for (e, R), v in S.coeffs.items()})


REFERENCE_QMAX = 20


def test_phi01_matches_theta_square_sums():
    # phi01 = 4 * sum_{i in {2,3,4}} theta_i(z)^2 / theta_i(0)^2
    for q in range(REFERENCE_QMAX + 1):
        want = 4 * (_theta2_quotient(q) + _theta34_quotients(q))
        assert jacobi.generator("phi01", q) == want, q


def test_z_taylor():
    f = jacobi.generator("a", 3)
    assert jacobi.z_taylor(f, 0) == f
    assert jacobi.z_taylor(_half_monomials(3, -1), 1) == _half_monomials(3, 1) * Fraction(1, 2)
    # D^2 a / 2 = D(D a) / 2: the helper composes as the Taylor coefficients must
    assert jacobi.z_taylor(f, 2) == jacobi.z_taylor(jacobi.z_taylor(f, 1), 1) * Fraction(1, 2)
    # at y = 1 they expand a(x) = x (1 + sum_j b_j x^j) with b_j = a_{j+1}: a'(0) = 1, a is
    # odd, and x/a(x) = exp(sum_k 2 G_2k x^2k / (2k)!) with G_2 = -E2/24, G_4 = E4/240
    q = 10
    a = jacobi.generator("a", q)
    b = [jacobi.z_taylor(a, j + 1).collapse_y() for j in range(6)]
    e2, e4 = jacobi.modular.e2(q), jacobi.modular.e4(q)
    assert b[0] == LaurentSeries.one(0, q)
    assert not any(b[j] for j in (1, 3, 5))
    assert 24 * b[2] == e2
    assert 2880 * b[4] == e2 * e2 * Fraction(5, 2) - e4


def test_z_taylor_and_lift_skip_the_validating_constructor(monkeypatch):
    f = jacobi.generator("phi01", 4) * Fraction(1, 3)  # R = 0 terms and a denominator
    q = jacobi.modular.e4(4) * Fraction(1, 240)
    want = [LaurentSeries(1, 4, {(n, (R,)): c * Fraction(R ** i, 2 ** i * math.factorial(i))
                                 for (n, (R,)), c in f.coeffs.items()}) for i in range(4)]
    want_lift = LaurentSeries(2, 4, {(n, (0, 0)): c for (n, _), c in q.coeffs.items()})
    calls = []
    init = LaurentSeries.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaurentSeries, "__init__", counted)
    assert [jacobi.z_taylor(f, i) for i in range(4)] == want
    assert jacobi._lift(q, 2) == want_lift
    assert calls == []


def test_a_matches_product_formula():
    q = REFERENCE_QMAX
    want = _half_monomials(q, -1) * _product_side(q, 1) * _euler_factor_sq_inv(q)
    assert jacobi.generator("a", q) == want


def test_phi032_matches_product_formula():
    # phi032 = (y^{1/2} + y^{-1/2}) P_2 / P_1 with P_t = _product_side(q, t);
    # P_1 is a unit with q^0 layer 1, so compare after multiplying it back.
    q = REFERENCE_QMAX
    lhs = jacobi.generator("phi032", q) * _product_side(q, 1)
    assert lhs == _half_monomials(q, 1) * _product_side(q, 2)


@pytest.mark.parametrize("name, m", [("phi032", 2), ("phi04", 3)])
def test_theta_multiplication_oracle(name, m):
    # phi032 = a(2z)/a(z) and phi04 = a(3z)/a(z)
    q = REFERENCE_QMAX
    assert jacobi.generator(name, q) * jacobi.generator("a", q) == _a_at(m, q)


def test_ring_relation():
    # dense product constructions, the oracle for the theta-sum ones: phi01
    # from a and its Taylor pieces, phi02 from phi01 and a, phi04 from the
    # quintuple-product phi032
    for q in [*range(31), 60]:
        a = jacobi.generator("a", q)
        a1, a2 = jacobi.z_taylor(a, 1), jacobi.z_taylor(a, 2)
        e2, e4 = (jacobi._lift(e(q), 1) for e in (jacobi.modular.e2, jacobi.modular.e4))
        p1, p32, p2, p4 = (jacobi.generator(n, q) for n in ("phi01", "phi032", "phi02", "phi04"))
        assert p1 == 12 * (a1 * a1 - 2 * a * a2) + e2 * a * a, q
        assert 24 * p2 == p1 * p1 - e4 * a ** 4, q
        assert 4 * p4 == p1 * p32 * p32 - p2 * p2, q


def test_theta_divide_at_m2_is_the_quintuple_product_sum():
    # t(2z)/t(z) = phi032, which _phi032 builds from chi_12 and Euler's sum
    for q in [*range(61), 100]:
        assert jacobi._theta_divide(jacobi._theta_numerator(q, 2), q) == jacobi._phi032(q), q


@pytest.mark.parametrize("key", [(0, (0,)), (0, (7,)), (3, (9,)), (6, (-1,)), (10, (4,))])
def test_theta_divide_refuses_a_remainder(key):
    num = jacobi._theta_numerator(10, 3)
    num[key] = num.get(key, 0) + 1
    with pytest.raises(ValueError, match=rf"remainder at q\^{key[0]}"):
        jacobi._theta_divide(num, 10)


def test_phi04_builds_nothing_else_and_multiplies_no_series(monkeypatch):
    calls = []
    mul = LaurentSeries.__mul__
    monkeypatch.setattr(LaurentSeries, "__mul__",
                        lambda self, other: calls.append(other) or mul(self, other))
    others = (jacobi.generator_a, jacobi._phi01, jacobi._phi032, jacobi._phi02,
              jacobi._theta_pieces)
    for f in (*others, jacobi._phi04):
        f.cache_clear()
    assert jacobi.generator("phi04", 60).qmax == 60
    assert calls == []
    assert [f.cache_info().currsize for f in others] == [0] * len(others)


def test_product_grading_and_identity():
    # a product has the summed grading: a^2 has weight2 -4 and index2 2
    a = jacobi.generator("a", 4)
    p1 = jacobi.generator("phi01", 4)
    sq = a * a
    assert jacobi.JacobiForm(-4, 2, sq).series is sq
    assert jacobi.check_elliptic_law(sq, 2, 1).ok
    assert p1 * 1 == p1
    assert jacobi.is_even(sq)


@pytest.mark.parametrize("name", jacobi.GRADINGS)
@pytest.mark.parametrize("lam", [-2, -1, 1, 2])
def test_elliptic_law_generators(name, lam):
    rep = jacobi.check_elliptic_law(jacobi.generator(name, 8), jacobi.GRADINGS[name][1], lam)
    assert rep.ok
    assert rep.pairs_checked >= 5
    assert not rep.vacuous


def test_elliptic_law_rejects_lambda_zero():
    # lambda = 0 maps each coefficient onto itself, so even a corrupted form
    # would pass; it is refused rather than reported as checked
    f = jacobi.generator("phi01", 3)
    poisoned = f + LaurentSeries.monomial(1, 3, 1, (0,), 999)
    for g in (f, poisoned):
        with pytest.raises(ValueError, match="lambda"):
            jacobi.check_elliptic_law(g, 2, 0)


def test_elliptic_law_rejects_support_of_the_wrong_parity():
    # a is odd in R, so it is no series of even doubled index
    for lam in (1, 2):
        with pytest.raises(ValueError, match="support parity"):
            jacobi.check_elliptic_law(jacobi.generator("a", 3), 2, lam)


@given(
    st.lists(st.sampled_from(list(jacobi.GRADINGS)), min_size=1, max_size=3),
    st.sampled_from([-1, 1]),
)
@settings(max_examples=25, deadline=None)
def test_elliptic_law_closed_under_products(names, lam):
    f = jacobi.generator(names[0], 6)
    for name in names[1:]:
        f = f * jacobi.generator(name, 6)
    rep = jacobi.check_elliptic_law(f, sum(jacobi.GRADINGS[n][1] for n in names), lam)
    assert rep.ok, rep.violations


@pytest.mark.parametrize("name", ["a", "phi01", "phi032"])
def test_elliptic_law_fault_injection(name):
    index2 = jacobi.GRADINGS[name][1]
    poisoned = jacobi.generator(name, 8) + LaurentSeries.monomial(1, 8, 2, (index2 % 2,), 7)
    rep = jacobi.check_elliptic_law(poisoned, index2, 1)
    assert not rep.ok
    assert rep.violations


def _law_reference(f, m2, lam):
    # (pairs checked, violations) of the law for f at doubled index m2, read
    # key by key on the Fraction coefficients: the reference for check_elliptic_law
    sign = -1 if (m2 * lam) % 2 else 1

    def image(n, R, l):
        return n + (l * R + m2 * l * l) // 2, R + 2 * m2 * l

    candidates = set()
    for (n, (R,)) in f.coeffs:
        candidates.add((n, R))
        pn, pR = image(n, R, -lam)
        if 0 <= pn <= f.qmax:
            candidates.add((pn, pR))
    checked, violations = 0, []
    for n, R in sorted(candidates):
        n2, R2 = image(n, R, lam)
        if n2 > f.qmax:
            continue
        expected = sign * f.coeff(n, R)
        got = f.coeff(n2, R2) if n2 >= 0 else Fraction(0)
        checked += 1
        if got != expected:
            violations.append((n, R, n2, R2, expected, got))
    return checked, tuple(violations)


@st.composite
def _rational_forms(draw):
    # (series, index2): a generator times p/q with q > 1, plus a few terms of
    # either sign that usually break the law, mirrored in R or not so that
    # evenness varies
    name = draw(st.sampled_from(list(jacobi.GRADINGS)))
    qmax = draw(st.integers(1, 5))
    index2 = jacobi.GRADINGS[name][1]
    p = draw(st.sampled_from([-7, -5, -1, 1, 5, 7]))
    q = draw(st.sampled_from([2, 3, 4, 6, 9, 12]))
    extra = {}
    for n, j, c in draw(st.lists(st.tuples(st.integers(0, qmax), st.integers(-4, 4),
                                           st.fractions(-3, 3, max_denominator=6)),
                                 max_size=3)):
        R = 2 * j + index2 % 2
        mirrored = draw(st.booleans())
        for key in {(n, (R,)), (n, (-R,))} if mirrored else {(n, (R,))}:
            extra[key] = extra.get(key, 0) + c
    s = jacobi.generator(name, qmax) * Fraction(p, q) + LaurentSeries(1, qmax, extra)
    return s, index2


@given(_rational_forms(), st.sampled_from([-2, -1, 1, 2]))
@settings(max_examples=150, deadline=None)
def test_law_and_evenness_on_numerators_match_fraction_reference(form, lam):
    f, index2 = form
    rep = jacobi.check_elliptic_law(f, index2, lam)
    assert (rep.pairs_checked, rep.violations) == _law_reference(f, index2, lam)
    assert rep.ok == (not rep.violations) and rep.vacuous == (rep.pairs_checked == 0)
    for row in rep.violations:
        assert all(type(v) is int for v in row[:4])
        assert all(type(v) is Fraction for v in row[4:])
    want_even = all(f.coeff(n, -R) == c for (n, (R,)), c in f.coeffs.items())
    assert jacobi.is_even(f) == want_even


def test_evenness():
    assert not jacobi.is_even(jacobi.generator("a", 4))
    assert jacobi.is_even(jacobi.generator("phi01", 4))
    assert jacobi.is_even(jacobi.generator("phi032", 4))


def test_weight0_monomials_enumeration():
    for index2 in range(0, 17):
        got = sorted(jacobi.weight0_monomials(index2))
        brute = sorted(
            (e1, e2, e3, e4)
            for e1, e2, e3, e4 in itertools.product(range(9), repeat=4)
            if 2 * e1 + 3 * e2 + 4 * e3 + 8 * e4 == index2
        )
        assert got == brute, index2


def test_dclas_gcd_via_basis_frozen():
    want = [INF, 12, 2, 6, 24, 4, 12, 3, 8, 12, 6, 2]
    assert [jacobi.dclas_gcd_via_basis(k) for k in range(1, 13)] == want


@functools.lru_cache(maxsize=None)
def reference_dclas_gcd(k):
    """gcd of the big-integer monomial values 12^e1 2^e2 6^e3 3^e4."""
    monos = jacobi.weight0_monomials(k)
    if not monos:
        return INF
    g = 0
    for (e1, e2, e3, e4) in monos:
        g = math.gcd(g, 12 ** e1 * 2 ** e2 * 6 ** e3 * 3 ** e4)
    return g


def test_dclas_gcd_via_basis_matches_big_int_gcd():
    for k in range(1, 301):
        assert jacobi.dclas_gcd_via_basis(k) == reference_dclas_gcd(k), k


def _fresh_process(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


GCD_PROBE = """
import json, sys
from genera import jacobi
from genera.values import value_str
print(json.dumps([value_str(jacobi.dclas_gcd_via_basis(int(k))) for k in sys.argv[1:]]))
"""


@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_dclas_gcd_via_basis_does_not_depend_on_call_order(order):
    # each order starts from empty coin tables in a fresh process
    ks = list(range(300, 0, -1))
    if order == "shuffled":
        random.Random(13).shuffle(ks)
    got = _fresh_process(GCD_PROBE, *ks)
    assert got == [value_str(reference_dclas_gcd(k)) for k in ks]


TABLE_PROBE = """
import json, sys
from genera import divis, jacobi
kmax = int(sys.argv[1])
sizes = []
for _ in range(2):
    rows = divis.verify_clas_rows(kmax)
    sizes.append(sorted(len(t) for t in jacobi._COIN_TABLES.values()))
print(json.dumps({"agree": all(r["agree"] == "yes" for r in rows), "sizes": sizes}))
"""


def test_verify_clas_solves_each_coin_table_once():
    # one table per cost vector, each solved up to kmax and never again
    got = _fresh_process(TABLE_PROBE, 194)
    assert got == {"agree": True, "sizes": [[195, 195], [195, 195]]}


def test_serialization_roundtrip():
    for name, grading in jacobi.GRADINGS.items():
        f = jacobi.JacobiForm(*grading, jacobi.generator(name, 3))
        assert jacobi.JacobiForm.from_obj(f.to_obj()) == f


# ---------------------------------------------------------------- record semantics


def test_jacobi_form_is_only_a_json_record():
    # no arithmetic and no accessors: the tags exist only at the JSON boundary
    methods = {k for k, v in vars(jacobi.JacobiForm).items()
               if callable(v) or isinstance(v, (classmethod, property))}
    assert methods == {"__init__", "to_obj", "from_obj"}
    with pytest.raises(ValueError, match="support parity broken at"):
        jacobi.JacobiForm(0, 2, jacobi.generator("a", 1))
    with pytest.raises(ValueError, match="elliptic variable"):
        jacobi.JacobiForm(0, 0, LaurentSeries.one(0, 1))


def test_jacobi_form_is_a_value_record():
    s = jacobi.generator("a", 1)
    f = jacobi.JacobiForm(-2, 1, s)
    assert f == jacobi.JacobiForm(weight2=-2, index2=1, series=s)
    assert hash(f) == hash(jacobi.JacobiForm(-2, 1, LaurentSeries(1, 1, dict(s.coeffs))))
    assert f != jacobi.JacobiForm(0, 1, s)
    assert f != jacobi.JacobiForm(-2, 1, s.truncate(0))
    assert f != jacobi.EllipticLawReport(-2, 1, s, False)
    assert repr(f) == (
        "JacobiForm(weight2=-2, index2=1, series=<series nvars=1 qmax=1: -y^(-1/2) + y^(1/2)"
        " + q*y^(-3/2) - 3*q*y^(-1/2) + 3*q*y^(1/2) - q*y^(3/2)>)")
    with pytest.raises(AttributeError):
        f.weight2 = 0
    with pytest.raises(AttributeError):
        f.extra = 0
    with pytest.raises(AttributeError):
        del f.series
    assert copy.copy(f) == f and copy.deepcopy(f) == f


def test_elliptic_law_report_is_a_value_record():
    rep = jacobi.EllipticLawReport(1, 3, ((0, 1, 2),), False)
    same = jacobi.EllipticLawReport(lam=1, pairs_checked=3, violations=((0, 1, 2),),
                                    vacuous=False)
    assert rep == same and hash(rep) == hash(same)
    assert rep != jacobi.EllipticLawReport(1, 3, ((0, 1, 2),), True)
    assert rep != jacobi.EllipticLawReport(-1, 3, ((0, 1, 2),), False)
    assert rep != (1, 3, ((0, 1, 2),), False)
    assert repr(rep) == "EllipticLawReport(lam=1, pairs_checked=3, violations=((0, 1, 2),), vacuous=False)"
    assert repr(jacobi.check_elliptic_law(jacobi.generator("a", 1), 1, 1)) == (
        "EllipticLawReport(lam=1, pairs_checked=4, violations=(), vacuous=False)")
    with pytest.raises(AttributeError):
        rep.violations = ()
