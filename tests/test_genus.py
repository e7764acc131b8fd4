"""Characteristic-class genus pipeline against its published anchors."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genera import genus, jacobi
from genera.series import LaurentSeries
from genera._data import resolve_data


@pytest.fixture(scope="module")
def k3():
    return genus.ChernData.load(resolve_data("k3"))


@pytest.fixture(scope="module")
def quintic():
    return genus.ChernData.load(resolve_data("quintic"))


def test_k3_genus_anchor(k3):
    got = genus.elliptic_genus(k3, nvars=1, qmax=6)
    want = 2 * jacobi.generator("phi01", 6)
    assert got.series == want.series
    assert (got.weight2, got.index2) == (0, 2)


def test_quintic_genus_anchor(quintic):
    got = genus.elliptic_genus(quintic, nvars=1, qmax=6)
    want = -100 * jacobi.generator("phi032", 6)
    assert got.series == want.series
    assert (got.weight2, got.index2) == (0, 3)


def test_euler_numbers(k3, quintic):
    assert genus.euler_number(k3) == 24
    assert genus.euler_number(quintic) == -200


def test_ev_of_genus_is_euler(k3, quintic):
    for m in (k3, quintic):
        ev = jacobi.ev_z0(genus.elliptic_genus(m, nvars=1, qmax=5))
        assert ev.coeff(0) == genus.euler_number(m)
        assert all(ev.coeff(n) == 0 for n in range(1, 6))


def test_chern_product_k3_squared(k3):
    prod = genus.chern_product(k3, k3)
    assert prod.dimc == 4
    assert prod.numbers == {
        (1, 1, 1, 1): 0,
        (2, 1, 1): 0,
        (2, 2): 1152,
        (3, 1): 0,
        (4,): 576,
    }


def test_genus_multiplicativity(k3):
    prod = genus.chern_product(k3, k3)
    got = genus.elliptic_genus(prod, nvars=1, qmax=4)
    g = genus.elliptic_genus(k3, nvars=1, qmax=4)
    assert got.series == (g * g).series


def _bernoulli_plus(n):
    """B_n with B_1 = +1/2, by the Akiyama-Tanigawa algorithm."""
    A = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    return A[0]


def test_factor_polynomial_bottom_is_a():
    for qmax in (2, 5):
        F = genus.factor_polynomial(qmax, 3)
        assert F[0] == jacobi.generator("a", qmax).series
    # embedded slots carry the same series on their own variable
    F2 = genus.factor_polynomial(3, 2, nvars=2, slot=1)
    assert F2[0] == jacobi.generator("a", 3).series.embed(2, 1)
    # the higher coefficients, checked against F(x) at z = 0 and at q = 0
    qmax, xdeg = 3, 4
    # the Todd series x/(1 - e^{-x}) has x^d coefficient B_d / d! (B_1 = +1/2)
    todd = [_bernoulli_plus(d) / factorial(d) for d in range(xdeg + 1)]
    for nvars, slot in ((1, 0), (2, 1)):
        F = genus.factor_polynomial(qmax, xdeg, nvars=nvars, slot=slot)
        assert len(F) == xdeg + 1
        key = {r: tuple(r if i == slot else 0 for i in range(nvars)) for r in (1, -1)}
        for d, Fd in enumerate(F):
            # F(x, z=0) = x: every y_i = 1 leaves x alone
            assert Fd.collapse_y() == LaurentSeries.const(0, qmax, int(d == 1))
            # q^0 layer: y^{1/2} (1 - y^{-1} e^{-x}) x/(1 - e^{-x})
            low = -sum(todd[d - j] * Fraction((-1) ** j, factorial(j)) for j in range(d + 1))
            want = {key[1]: todd[d], key[-1]: low}
            assert Fd.q_layer(0) == {R: c for R, c in want.items() if c}


def test_two_variable_diagonal(k3):
    # with per-root factor F(x,z1)F(x,z2) and c1^2[K3] = 0, extracting the
    # degree-2 part gives B^2 - 2AC = 2 a^2 (b^2 - 2ac), so the identified
    # 2-variable genus is 2 a^2 * genus = 4 a^2 phi01
    g2 = genus.elliptic_genus(k3, nvars=2, qmax=5)
    assert g2.nvars == 2
    a = jacobi.generator("a", 5)
    want = 4 * (a * a * jacobi.generator("phi01", 5))
    diag = g2.series.diagonal()
    assert diag == want.series
    # and the collapsed form obeys the single-variable law at doubled index
    f = jacobi.JacobiForm(want.weight2, want.index2, diag)
    for lam in (1, -1):
        assert jacobi.check_elliptic_law(f, lam).ok


def test_two_variable_symmetry(k3):
    g2 = genus.elliptic_genus(k3, nvars=2, qmax=3)
    swapped = {
        (n, (r2, r1)): c for (n, (r1, r2)), c in g2.series.coeffs.items()
    }
    assert swapped == g2.series.coeffs


def test_chern_data_validation():
    with pytest.raises(genus.ChernDataError):
        genus.ChernData.from_obj({"dimc": 2, "numbers": {"1,2": 5}})  # not descending
    with pytest.raises(genus.ChernDataError):
        genus.ChernData.from_obj({"dimc": 2, "numbers": {"3": 5}})  # overweight part
    with pytest.raises(genus.ChernDataError):
        genus.ChernData.from_obj({"dimc": -1, "numbers": {}})
    # only JSON integers: no bools, floats or strings, in numbers or dimc
    for bad in (24.7, True, "24", 24.0):
        with pytest.raises(genus.ChernDataError):
            genus.ChernData.from_obj({"dimc": 2, "numbers": {"2": bad, "1,1": 0}})
        with pytest.raises(genus.ChernDataError):
            genus.ChernData.from_obj({"dimc": 2, "numbers": {"2": 24, "1,1": bad}})
    for bad in (2.0, True, "2"):
        with pytest.raises(genus.ChernDataError):
            genus.ChernData.from_obj({"dimc": bad, "numbers": {"2": 24, "1,1": 0}})
    # the file and its numbers must be JSON objects
    for bad in ([1, 2], "k3", {"dimc": 2, "numbers": [24, 0]}):
        with pytest.raises(genus.ChernDataError):
            genus.ChernData.from_obj(bad)


def test_missing_chern_number_is_an_error():
    m = genus.ChernData.from_obj({"dimc": 2, "numbers": {"2": 24}})  # no c1^2
    with pytest.raises(genus.ChernDataError):
        genus.elliptic_genus(m, nvars=1, qmax=2)


def test_bad_nvars_rejected(k3):
    with pytest.raises(ValueError):
        genus.elliptic_genus(k3, nvars=0, qmax=2)


def test_chern_data_roundtrip(k3):
    again = genus.ChernData.from_obj(k3.to_obj())
    assert again.dimc == k3.dimc
    assert again.numbers == k3.numbers


# ---------------------------------------------------------------- properties
# These hold for every Chern-number vector, whatever the algorithm: the genus
# is multiplicative, restricts to the Euler number at z = 0, and (at two
# variables) is symmetric and collapses to c_top * a^dimc at y2 = 1, where the
# second factor reduces to x.

PROPS = settings(max_examples=15, deadline=None)


def chern_st(dimc_min=1, dimc_max=2):
    def data(dimc):
        numbers = {p: st.integers(-60, 60) for p in genus.partitions(dimc)}
        return st.fixed_dictionaries(numbers).map(
            lambda nums: genus.ChernData("random", dimc, nums))
    return st.integers(dimc_min, dimc_max).flatmap(data)


@PROPS
@given(chern_st(), chern_st(), st.integers(0, 3))
def test_genus_is_multiplicative(m, n, qmax):
    prod = genus.elliptic_genus(genus.chern_product(m, n), nvars=1, qmax=qmax)
    gm = genus.elliptic_genus(m, nvars=1, qmax=qmax)
    gn = genus.elliptic_genus(n, nvars=1, qmax=qmax)
    assert prod.index2 == m.dimc + n.dimc
    assert prod.series == (gm * gn).series


@PROPS
@given(chern_st(1, 3), st.integers(0, 4))
def test_genus_at_z0_is_the_euler_number(m, qmax):
    ev = jacobi.ev_z0(genus.elliptic_genus(m, nvars=1, qmax=qmax))
    assert ev.coeff(0) == genus.euler_number(m)
    assert all(ev.coeff(n) == 0 for n in range(1, qmax + 1))
    # the elliptic law needs c1 = 0: with every Chern number that has a c1
    # factor set to zero the data is rationally that of an SU-manifold and
    # the genus is a Jacobi form; with c1 = 1 at dimc 1 it is
    # (y^{1/2} + y^{-1/2})/2, which breaks the law
    su = genus.ChernData("su", m.dimc, {p: 0 if 1 in p else v for p, v in m.numbers.items()})
    g = genus.elliptic_genus(su, nvars=1, qmax=qmax)
    for lam in (1, -1):
        assert jacobi.check_elliptic_law(g, lam).ok


@PROPS
@given(chern_st(1, 3), st.integers(0, 3))
def test_two_variable_genus_symmetry_and_y2_collapse(m, qmax):
    g2 = genus.elliptic_genus(m, nvars=2, qmax=qmax).series
    swapped = {(n, (r2, r1)): c for (n, (r1, r2)), c in g2.coeffs.items()}
    assert swapped == g2.coeffs
    at_y2_one: dict = {}
    for (n, (r1, _r2)), c in g2.coeffs.items():
        at_y2_one[(n, (r1,))] = at_y2_one.get((n, (r1,)), 0) + c
    a = jacobi.generator("a", qmax).series
    want = a ** m.dimc * genus.euler_number(m)
    assert LaurentSeries(1, qmax, at_y2_one) == want
