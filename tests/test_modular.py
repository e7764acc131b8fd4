"""Eisenstein series, the discriminant, and the ring relation, as pure q-series."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genera import modular
from genera.series import LaurentSeries


def test_e4_expansion():
    e = modular.e4(4)
    assert [e.coeff(n) for n in range(5)] == [1, 240, 2160, 6720, 17520]


def test_e6_expansion():
    e = modular.e6(4)
    assert [e.coeff(n) for n in range(5)] == [1, -504, -16632, -122976, -532728]


def test_ramanujan_derivative_of_e2_e4():
    # q d/dq E4 = (E2 E4 - E6)/3 pins E2, and its weight, independently of
    # its definition; q d/dq E2 = (E2^2 - E4)/12 as well
    q = 12
    e2, e4, e6 = modular.e2(q), modular.e4(q), modular.e6(q)
    assert all(3 * n * e4.coeff(n) == (e2 * e4 - e6).coeff(n) for n in range(q + 1))
    assert all(12 * n * e2.coeff(n) == (e2 * e2 - e4).coeff(n) for n in range(q + 1))


def test_delta_expansion():
    d = modular.delta(6)
    # tau(n): 1, -24, 252, -1472, 4830, -6048
    assert [d.coeff(n) for n in range(7)] == [0, 1, -24, 252, -1472, 4830, -6048]


def test_ring_relation():
    assert modular.verify_ring_relation(10)


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



@pytest.mark.parametrize("form", [modular.e2, modular.e4, modular.e6, modular.eta3_sum,
                                  modular.delta], ids=lambda f: f.__name__)
def test_forms_are_pure_q_series(form):
    f = form(3)
    assert type(f) is LaurentSeries and (f.nvars, f.qmax) == (0, 3)
