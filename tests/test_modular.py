"""Eisenstein series, the discriminant, and the weight-graded ring relation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genera import modular
from genera.series import LaurentSeries


def test_e4_expansion():
    e = modular.e4(4)
    assert [e.coeff(n) for n in range(5)] == [1, 240, 2160, 6720, 17520]
    assert e.weight2 == 8


def test_e6_expansion():
    e = modular.e6(4)
    assert [e.coeff(n) for n in range(5)] == [1, -504, -16632, -122976, -532728]
    assert e.weight2 == 12


def test_ramanujan_derivative_of_e2_e4():
    # q d/dq E4 = (E2 E4 - E6)/3 pins E2, and its weight, independently of
    # its definition; q d/dq E2 = (E2^2 - E4)/12 as well
    q = 12
    e2, e4, e6 = modular.e2(q), modular.e4(q), modular.e6(q)
    assert e2.weight2 == 4
    assert all(3 * n * e4.coeff(n) == (e2 * e4 - e6).coeff(n) for n in range(q + 1))
    assert all(12 * n * e2.coeff(n) == (e2 * e2 - e4).coeff(n) for n in range(q + 1))


def test_delta_expansion():
    d = modular.delta(6)
    # tau(n): 1, -24, 252, -1472, 4830, -6048
    assert [d.coeff(n) for n in range(7)] == [0, 1, -24, 252, -1472, 4830, -6048]
    assert d.weight2 == 24


def test_ring_relation():
    assert modular.verify_ring_relation(10)


def test_weight_bookkeeping():
    e4 = modular.e4(3)
    e6 = modular.e6(3)
    assert (e4 * e6).weight2 == 20
    assert (e4**3).weight2 == 24
    with pytest.raises(ValueError):
        e4 + e6  # mismatched weights do not add


@given(st.integers(min_value=1, max_value=30))
def test_eisenstein_divisor_sums(n):
    def sigma(k):
        return sum(d**k for d in range(1, n + 1) if n % d == 0)

    assert modular.e2(n).coeff(n) == -24 * sigma(1)
    assert modular.e4(n).coeff(n) == 240 * sigma(3)
    assert modular.e6(n).coeff(n) == -504 * sigma(5)


def test_scalar_multiplication():
    d = modular.delta(4)
    t = 1728 * d
    assert t.coeff(1) == 1728
    assert t.weight2 == 24


def test_qexpansion_is_a_value_record():
    e = modular.e4(2)
    same = modular.QExpansion(weight2=8, series=modular.e4(2).series)
    assert e == same and hash(e) == hash(same)
    assert e != modular.QExpansion(12, e.series)
    assert e != modular.e4(3)
    assert e != (8, e.series)
    assert repr(e) == "QExpansion(weight2=8, series=<series nvars=0 qmax=2: 1 + 240*q + 2160*q^2>)"
    with pytest.raises(AttributeError):
        e.weight2 = 12
    with pytest.raises(ValueError, match="no y-variables"):
        modular.QExpansion(8, series=LaurentSeries.one(1, 2))
