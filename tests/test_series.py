"""Ring axioms, truncation, inverses, and serialization of LaurentSeries.

The product is checked against `reference_mul`, the schoolbook double loop
over Fraction coefficients, on both sides of the packing guard.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genera import series
from genera.series import LaurentSeries, coeff_from_str, coeff_to_str

QMAX = 3

coeff_st = st.fractions(min_value=-9, max_value=9, max_denominator=6)
big_coeff_st = st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**40))


def reference_mul(f, g):
    """f * g by the double loop over both operands' terms."""
    qmax = min(f.qmax, g.qmax)
    out = {}
    for (n1, R1), c1 in f.coeffs.items():
        for (n2, R2), c2 in g.coeffs.items():
            n = n1 + n2
            if n > qmax:
                continue
            key = (n, tuple(r1 + r2 for r1, r2 in zip(R1, R2)))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return LaurentSeries(f.nvars, qmax, out)


def series_st(nvars=1, qmax=QMAX, coeffs=coeff_st):
    keys = st.tuples(
        st.integers(min_value=0, max_value=qmax),
        st.tuples(*([st.integers(min_value=-4, max_value=4)] * nvars)),
    )
    return st.dictionaries(keys, coeffs, max_size=8).map(
        lambda d: LaurentSeries(nvars, qmax, d)
    )


@st.composite
def series_pair_st(draw):
    """Two series of one random nvars; exponents on a lattice offset + step * k."""
    nvars = draw(st.integers(0, 3))
    step = draw(st.sampled_from([1, 2, 3]))

    def one():
        qmax = draw(st.integers(0, 4))
        offset = draw(st.tuples(*[st.integers(-3, 3)] * nvars))
        keys = st.tuples(st.integers(0, qmax), st.tuples(*[st.integers(-2, 2)] * nvars)).map(
            lambda key: (key[0], tuple(o + step * k for o, k in zip(offset, key[1]))))
        return LaurentSeries(nvars, qmax, draw(st.dictionaries(keys, big_coeff_st, max_size=10)))

    return one(), one()


@given(series_pair_st())
def test_product_matches_double_loop(pair):
    f, g = pair
    assert f * g == reference_mul(f, g)


def sparse_st(nvars):
    """A few terms with y-exponents up to +-60: the dense packing would be mostly empty."""
    keys = st.tuples(st.integers(0, 3), st.tuples(*[st.integers(-60, 60)] * nvars))
    return st.dictionaries(keys, big_coeff_st, max_size=4).map(
        lambda d: LaurentSeries(nvars, 3, d))


@given(st.integers(1, 3).flatmap(lambda nvars: st.tuples(sparse_st(nvars), sparse_st(nvars))))
def test_sparse_product_matches_double_loop(pair):
    f, g = pair
    assert f * g == reference_mul(f, g)


@pytest.mark.parametrize("side", [-2, -1, 0, 1, 2])
def test_product_on_both_sides_of_the_packing_guard(monkeypatch, side):
    # three terms at y-exponents 0, 1 and d at qmax 0: the packing holds
    # 2d + 1 slots for 9 term pairs; in f * g the two y^(d+1) terms cancel
    pairs = 9
    d = (series.MAX_SLOTS_PER_PAIR * pairs - 1) // 2 + side
    calls = []
    schoolbook = series._schoolbook

    def counted(*args):
        calls.append(args)
        return schoolbook(*args)

    monkeypatch.setattr(series, "_schoolbook", counted)
    f = LaurentSeries(1, 0, {(0, (0,)): Fraction(-3, 4), (0, (1,)): 2**70, (0, (d,)): 5})
    g = LaurentSeries(1, 0, {(0, (0,)): Fraction(7, 6), (0, (1,)): 2**70, (0, (d,)): -5})
    square, product = f * f, f * g
    packed = 2 * d + 1 <= series.MAX_SLOTS_PER_PAIR * pairs
    assert packed == (side <= 0)
    assert len(calls) == (0 if packed else 2)
    assert square == reference_mul(f, f)
    assert product == reference_mul(f, g)
    assert (0, (d + 1,)) not in product.coeffs


def test_product_edge_cases():
    f = LaurentSeries(2, 3, {(0, (1, -3)): Fraction(-5, 6), (1, (0, 2)): 7, (3, (-1, 1)): 2})
    copy = dict(f.coeffs)
    zero = LaurentSeries.zero(2, 3)
    assert f * zero == zero and zero * f == zero
    assert f * LaurentSeries.zero(2, 1) == LaurentSeries.zero(2, 1)
    # a single monomial shifts every term and scales it
    m = LaurentSeries.monomial(2, 3, 1, (-3, 1), Fraction(2, 3))
    assert m * f == f * m == LaurentSeries(2, 3, {
        (n + 1, (R[0] - 3, R[1] + 1)): Fraction(2, 3) * c for (n, R), c in f.coeffs.items()})
    # different qmax: the result stops at the smaller one
    g = LaurentSeries(2, 1, {(0, (0, 0)): 1, (1, (1, 1)): -1})
    h = f * g
    assert h.qmax == 1 and max(n for n, _ in h.coeffs) == 1
    assert h == reference_mul(f, g) == g * f
    assert f.coeffs == copy  # operands are not mutated
    assert g.coeffs == {(0, (0, 0)): 1, (1, (1, 1)): -1}
    # no y-variables
    e = LaurentSeries(0, 4, {(0, ()): 1, (1, ()): Fraction(-1, 2), (3, ()): 5})
    assert e * e == reference_mul(e, e)
    assert (e * e).coeff(2, ()) == Fraction(1, 4)


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 31, 32, 33, 64, 200])
def test_product_at_the_slot_bound(k):
    # every coefficient is +-(2^k - 1) and the middle slots sum min(#f, #g)
    # products of one sign, so the slot width is at its bound, in both signs
    c = 2**k - 1
    for length in (1, 2, 3, 4, 5):
        f = LaurentSeries(1, 2, {(n, (2 * i - 1,)): c for n in (0, 1) for i in range(length)})
        for sign in (1, -1):
            g = LaurentSeries(1, 2, {(0, (1 - 2 * i,)): sign * c for i in range(length)})
            assert f * g == reference_mul(f, g)
            assert (f * g).coeff(0, (0,)) == sign * length * c * c
        alt = LaurentSeries(1, 2, {(n, (2 * i,)): (-1) ** (i + n) * c
                                   for n in (0, 1, 2) for i in range(length)})
        assert f * alt == reference_mul(f, alt)


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
    for k in range(8):
        assert f**k == acc
        acc = acc * f


@given(
    st.integers(0, 2),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    st.lists(coeff_st, max_size=8),
)
def test_inverse(nvars, c0, tail):
    # a pure q-series (every y-exponent 0) with a nonzero constant term
    zero = (0,) * nvars
    f = LaurentSeries(nvars, 8, {(n, zero): c for n, c in enumerate([c0, *tail])})
    assert f * f.inverse() == LaurentSeries.one(nvars, 8)


def test_inverse_rejects_non_units():
    y_dependent = LaurentSeries(1, QMAX, {(0, (0,)): 1, (1, (2,)): 1})
    no_constant = LaurentSeries(2, QMAX, {(1, (0, 0)): 1, (2, (0, 0)): Fraction(1, 2)})
    for f in (y_dependent, no_constant, LaurentSeries.zero(0, QMAX)):
        with pytest.raises(ValueError):
            f.inverse()


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


def test_coeff_rejects_an_R_of_the_wrong_length():
    from genera import jacobi, modular

    with pytest.raises(ValueError, match="length 1, not nvars = 0"):
        modular.e4(2).coeff(1, (0,))
    with pytest.raises(ValueError, match="length 2, not nvars = 1"):
        jacobi.generator("a", 2).coeff(0, (1, 2))
    with pytest.raises(ValueError, match="length 1, not nvars = 2"):
        LaurentSeries.one(2, 1).coeff(0, 0)
    assert modular.e4(2).coeff(1) == modular.e4(2).coeff(1, ()) == 240
    assert jacobi.generator("a", 2).coeff(0, 1) == 1


def test_coeff_and_q_layer_above_qmax_are_unknown():
    from genera import modular

    e4 = modular.e4(2)
    # q^5 of E4 is 30240; at qmax 2 it is not known, so it is not read as 0
    with pytest.raises(ValueError, match=r"q\^5 is above qmax = 2"):
        e4.coeff(5)
    with pytest.raises(ValueError, match=r"q\^3 is above qmax = 2"):
        e4.q_layer(3)
    a = LaurentSeries.monomial(1, 1, 1, (1,))
    with pytest.raises(ValueError, match=r"q\^2 is above qmax = 1"):
        a.coeff(2, 1)
    with pytest.raises(ValueError, match=r"q\^2 is above qmax = 1"):
        a.q_layer(2)
    # q-powers up to qmax read as stored, and negative ones as 0
    assert (e4.coeff(2), e4.coeff(-1), e4.q_layer(-1)) == (2160, 0, {})
    assert (a.coeff(1, 1), a.q_layer(1), a.q_layer(0)) == (1, {(1,): 1}, {})
    assert modular.e4(5).coeff(5) == 30240


def test_zero_pruning():
    f = LaurentSeries(1, 2, {(0, (0,)): 1, (1, (2,)): 0})
    assert (0, (2,)) not in f.coeffs
    assert bool(f)
    assert not bool(f - f)


def test_coeffs_is_a_read_only_fraction_view():
    f = LaurentSeries(1, 2, {(0, (0,)): Fraction(1, 6), (1, (2,)): Fraction(-3, 4)})
    assert (f.den, f.nums) == (12, {(0, (0,)): 2, (1, (2,)): -9})
    view = f.coeffs
    assert len(view) == 2 and (1, (2,)) in view and (2, (0,)) not in view
    assert sorted(view) == [(0, (0,)), (1, (2,))]
    assert view == {(0, (0,)): Fraction(1, 6), (1, (2,)): Fraction(-3, 4)} == dict(view)
    assert all(type(c) is Fraction for _k, c in view.items())
    with pytest.raises(TypeError):
        view[(0, (0,))] = 1


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
    assert not LaurentSeries(1, 2, {(5, (0,)): 1})


def test_binary_ops_truncate_to_min_qmax():
    f = LaurentSeries(1, 5, {(4, (0,)): 1, (1, (0,)): 1})
    g = LaurentSeries(1, 2, {(0, (0,)): 1})
    assert (f + g).qmax == 2
    assert (f * g).qmax == 2
    assert (f * g).coeff(1, (0,)) == 1


def assert_normalized(s):
    """One stored form: nonzero int numerators, gcd(den, nums) = 1 (so den = 1 when zero)."""
    assert type(s.den) is int and s.den >= 1
    assert all(type(v) is int and v != 0 for v in s.nums.values())
    assert math.gcd(s.den, *s.nums.values()) == 1
    rebuilt = LaurentSeries(s.nvars, s.qmax, dict(s.coeffs))
    assert (rebuilt.den, rebuilt.nums) == (s.den, s.nums)
    assert s == rebuilt and hash(s) == hash(rebuilt)


@given(series_st(nvars=2), series_st(nvars=2), coeff_st, st.integers(0, QMAX))
def test_results_are_normalized(f, g, c, m):
    results = [f * g, f * f, f + g, f - g, f + (-f), -f, c * f, f * c, f**3,
               f.truncate(m), f.diagonal(), f.diagonal().embed(2, 1), f.collapse_y(),
               f + c, f - c]
    unit = f.collapse_y() + 1
    if unit.coeff(0, ()):
        results.append(unit.inverse())
    for s in results:
        assert_normalized(s)


def test_products_and_sums_skip_the_validating_constructor(monkeypatch):
    f = LaurentSeries(2, 4, {(0, (1, -3)): Fraction(-5, 6), (1, (0, 2)): 7, (3, (-1, 1)): 2})
    g = LaurentSeries(2, 3, {(0, (0, 0)): Fraction(1, 3), (2, (1, 1)): -1})
    calls = []
    init = LaurentSeries.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LaurentSeries, "__init__", counted)
    f * g, f + g, f - g, -f, 3 * f, f.truncate(1), f.diagonal().embed(2, 0)
    assert calls == []


@given(st.fractions(max_denominator=50))
def test_coeff_string_roundtrip(c):
    assert coeff_from_str(coeff_to_str(c)) == c


@given(st.from_regex(r"-?[0-9]{1,40}", fullmatch=True))
def test_coeff_from_str_reads_decimal_integers_as_int(s):
    got = coeff_from_str(s)
    assert type(got) is int and got == Fraction(s)


@given(st.one_of(st.sampled_from(["+3", " 3", "3 ", "3/1", "-6/4", "1/0", "\u00b2", "-\u00b2",
                                  "1.5", "1e3", "-", "--3", "3-", "", "1_0", "\u0663"]),
                 st.text(alphabet="-+/ .e_0123456789\u00b2\u0663", max_size=6)))
def test_coeff_from_str_reads_other_strings_as_fraction_did(s):
    # the value, or the ValueError and its message (which the CLI prints)
    try:
        want = Fraction(s)
    except ZeroDivisionError:
        with pytest.raises(ValueError, match="zero denominator"):
            coeff_from_str(s)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            coeff_from_str(s)
        assert str(got.value) == str(exc)
    else:
        assert coeff_from_str(s) == want


def test_coeff_from_str_keeps_a_json_integer():
    assert type(coeff_from_str(-7)) is int and coeff_from_str(-7) == -7
    assert type(coeff_from_str("+3")) is Fraction and coeff_from_str("3/1") == 3


@given(st.integers(0, 2).flatmap(lambda nvars: st.tuples(
    st.just(nvars),
    st.dictionaries(st.tuples(st.integers(0, QMAX), st.tuples(*[st.integers(-4, 4)] * nvars)),
                    st.integers(-60, 60).filter(bool), min_size=1, max_size=8),
    st.integers(2, 60))))
def test_to_obj_writes_each_coefficient_in_lowest_terms(case):
    nvars, nums, den = case
    f = LaurentSeries(nvars, QMAX, {k: Fraction(v, den) for k, v in nums.items()})
    for n, R, text in f.to_obj()["terms"]:
        c = Fraction(f.nums[(n, tuple(R))], f.den)
        assert text == coeff_to_str(c) == str(c)


def test_scalar_operands_and_constructor_values():
    from decimal import Decimal

    s = LaurentSeries(1, 2, {(0, (0,)): Fraction(3, 2), (1, (2,)): -5, (2, (-2,)): Fraction(-7, 4)})
    assert s * True == s == True * s
    assert (s * Fraction(1, 3) == Fraction(1, 3) * s
            == LaurentSeries(1, 2, {(0, (0,)): Fraction(1, 2), (1, (2,)): Fraction(-5, 3),
                                    (2, (-2,)): Fraction(-7, 12)}))
    assert s + 2 == 2 + s == LaurentSeries(1, 2, {(0, (0,)): Fraction(7, 2), (1, (2,)): -5,
                                                  (2, (-2,)): Fraction(-7, 4)})
    assert s - Fraction(1, 2) == LaurentSeries(1, 2, {(0, (0,)): 1, (1, (2,)): -5,
                                                      (2, (-2,)): Fraction(-7, 4)})
    assert (s - Fraction(3, 2)).coeff(0, 0) == 0 and (0, (0,)) not in (s - Fraction(3, 2)).nums
    for bad in (0.5, "2", Decimal(2)):
        for op in (lambda: s * bad, lambda: bad * s, lambda: s + bad, lambda: s - bad):
            with pytest.raises(TypeError):
                op()
    # values other than int and Fraction are read through Fraction(value)
    for val, stored in ((0.5, (2, 1)), ("-3/4", (4, -3)), (Decimal("1.25"), (4, 5)),
                        (True, (1, 1)), (Fraction(6, 4), (2, 3))):
        t = LaurentSeries(0, 1, {(1, ()): val})
        assert (t.den, t.nums) == (stored[0], {(1, ()): stored[1]})
    with pytest.raises(TypeError):
        LaurentSeries(0, 1, {(1, ()): None})
    # the accessors return fractions.Fraction
    assert type(s.coeff(1, 2)) is Fraction and type(s.coeff(1, 4)) is Fraction
    assert all(type(c) is Fraction for c in s.q_layer(0).values())
    assert all(type(c) is Fraction for _n, _R, c in s.terms())
    assert type(s.coeffs[(1, (2,))]) is Fraction
