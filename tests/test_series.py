"""Ring axioms, truncation, inverses, and serialization of LaurentSeries."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genera.series import LaurentSeries, coeff_from_str, coeff_to_str

QMAX = 3

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def series_st(nvars=1, qmax=QMAX, coeffs=coeff_st):
    keys = st.tuples(
        st.integers(min_value=0, max_value=qmax),
        st.tuples(*([st.integers(min_value=-4, max_value=4)] * nvars)),
    )
    return st.dictionaries(keys, coeffs, max_size=8).map(
        lambda d: LaurentSeries(nvars, qmax, d)
    )


@given(series_st(), series_st(), series_st())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(series_st())
def test_additive_structure(f):
    zero = LaurentSeries.zero(1, QMAX)
    one = LaurentSeries.one(1, QMAX)
    assert f + zero == f
    assert f - f == zero
    assert f + (-f) == zero
    assert one * f == f
    assert 0 * f == zero


@given(series_st(nvars=2), series_st(nvars=2))
def test_truncation_commutes_with_product(f, g):
    # the low-order part of a product only sees low-order parts of the factors
    for m in range(QMAX + 1):
        assert (f * g).truncate(m) == f.truncate(m) * g.truncate(m)


@given(series_st())
def test_pow_matches_repeated_product(f):
    acc = LaurentSeries.one(1, QMAX)
    for k in range(4):
        assert f**k == acc
        acc = acc * f


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    st.integers(min_value=-3, max_value=3),
    series_st(),
)
def test_inverse(c0, r0, tail):
    # unit = monomial leading layer plus a strictly positive q-order tail
    shifted = LaurentSeries(
        1, QMAX, {(n + 1, R): c for (n, R), c in tail.coeffs.items() if n + 1 <= QMAX}
    )
    f = LaurentSeries.monomial(1, QMAX, 0, (r0,), c0) + shifted
    assert f * f.inverse() == LaurentSeries.one(1, QMAX)


def test_inverse_rejects_fat_leading_layer():
    f = LaurentSeries(1, QMAX, {(0, (0,)): 1, (0, (2,)): 1})
    with pytest.raises(ValueError):
        f.inverse()


@given(series_st(nvars=2))
def test_serialization_roundtrip(f):
    assert LaurentSeries.from_obj(f.to_obj()) == f


@given(series_st(nvars=2), series_st(nvars=2))
def test_diagonal_is_multiplicative(f, g):
    assert (f * g).diagonal() == f.diagonal() * g.diagonal()


@given(series_st(), series_st())
def test_collapse_y_is_multiplicative(f, g):
    assert (f * g).collapse_y() == f.collapse_y() * g.collapse_y()


@given(series_st())
def test_embed_then_diagonal_is_identity(f):
    for slot in (0, 1):
        assert f.embed(2, slot).diagonal() == f


def test_monomial_and_layers():
    f = LaurentSeries.monomial(2, 3, 1, (2, -1), Fraction(3, 2))
    assert f.coeff(1, (2, -1)) == Fraction(3, 2)
    assert f.q_layer(1) == {(2, -1): Fraction(3, 2)}
    assert f.q_layer(0) == {}
    assert not f.is_integral
    assert (2 * f).is_integral


def test_zero_pruning():
    f = LaurentSeries(1, 2, {(0, (0,)): 1, (1, (2,)): 0})
    assert (0, (2,)) not in f.coeffs
    assert bool(f)
    assert not bool(f - f)


def test_constructor_validation():
    with pytest.raises(ValueError):
        LaurentSeries(-1, 2)
    with pytest.raises(ValueError):
        LaurentSeries(1, -1)
    with pytest.raises(ValueError):
        LaurentSeries(1, 2, {(0, (0, 0)): 1})  # wrong arity
    with pytest.raises(ValueError):
        LaurentSeries(1, 2, {(-1, (0,)): 1})  # negative q-power
    # beyond-qmax keys are the truncation itself, dropped without error
    assert LaurentSeries(1, 2, {(5, (0,)): 1}).is_zero


def test_binary_ops_truncate_to_min_qmax():
    f = LaurentSeries(1, 5, {(4, (0,)): 1, (1, (0,)): 1})
    g = LaurentSeries(1, 2, {(0, (0,)): 1})
    assert (f + g).qmax == 2
    assert (f * g).qmax == 2
    assert (f * g).coeff(1, (0,)) == 1


@given(st.fractions(max_denominator=50))
def test_coeff_string_roundtrip(c):
    assert coeff_from_str(coeff_to_str(c)) == c
