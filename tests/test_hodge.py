"""Hodge-number relation rows and elimination for the hyperkaehler genus ansatz."""

from fractions import Fraction

import pytest

from genera import _intlin, hodge, jacobi
from genera.hodge import primitive, relation_str

K2 = hodge.UNKNOWNS[2]  # h11, h12, h22, Euler


# ---------------------------------------------------------------- relation rows


def test_affine_normalized():
    # primitive integer coefficients, positive first coefficient in name order
    assert primitive(("x", "y"), (-3, 6, 1)) == (3, -6, -1)
    assert primitive(("y", "x"), (6, -3, 1)) == (-6, 3, -1)
    assert primitive(("x",), (0, 0)) == (0, 0)
    assert primitive(("x",), (0, -6)) == (0, 1)
    assert primitive(K2, (16, -4, -2, 0, 128)) == (8, -2, -1, 0, 64)


def test_affine_str():
    assert relation_str(K2, (0, 0, 0, 0, 0)) == "0"
    assert relation_str(K2, (1, 0, 0, 0, 0)) == "h11"
    assert relation_str(K2, (-1, 0, 0, 0, 0)) == "-h11"
    assert relation_str(K2, (8, -2, -1, 0, 64)) == "8*h11 - 2*h12 - h22 + 64"
    assert relation_str(("x",), (1, -4)) == "x - 4"
    assert relation_str(("x",), (0, -6)) == "-6"
    # terms in name order, not in row order
    assert relation_str(K2, (-12, 6, 0, 1, -72)) == "Euler - 12*h11 + 6*h12 - 72"
    assert relation_str(("x", "y"), (Fraction(1, 6), Fraction(-3, 2), 0)) == "1/6*x - 3/2*y"


# ---------------------------------------------------------------- entries


def test_hodge_entry_edges():
    # p = 0 edge: 1 in even columns, 0 in odd ones
    assert [hodge.hodge_entry(2, 0, q) for q in range(5)] == [1, 0, 1, 0, 1]
    assert hodge.hodge_entry(2, 4, 0) == 1
    assert hodge.hodge_entry(2, 3, 4) == 0


def test_hodge_entry_orbit_collapse():
    assert hodge.hodge_entry(2, 1, 1) == "h11"
    assert hodge.hodge_entry(2, 1, 3) == "h11"
    assert hodge.hodge_entry(2, 3, 3) == "h11"
    assert hodge.hodge_entry(2, 2, 1) == "h12"
    assert hodge.hodge_entry(2, 3, 2) == "h12"
    assert hodge.hodge_entry(2, 2, 2) == "h22"
    for p in range(5):
        for q in range(5):
            assert hodge.hodge_entry(2, p, q) == hodge.hodge_entry(2, q, p)
            assert hodge.hodge_entry(2, p, q) == hodge.hodge_entry(2, 4 - p, 4 - q)


def test_hodge_entry_range():
    with pytest.raises(hodge.HodgeError):
        hodge.hodge_entry(2, 5, 0)
    with pytest.raises(hodge.HodgeError):
        hodge.hodge_entry(2, 0, -1)


def test_cp_row():
    assert hodge.cp_row(2, 0) == (0, 0, 0, 0, 3)
    assert hodge.cp_row(2, 1) == (2, -1, 0, 0, 0)
    assert hodge.cp_row(2, 2) == (0, -2, 1, 0, 2)
    assert hodge.cp_row(2, 3) == hodge.cp_row(2, 1)
    assert hodge.cp_row(2, 4) == hodge.cp_row(2, 0)


# ---------------------------------------------------------------- ansatz


def _ansatz_value(k, coeff_of_form):
    # den and the sum of coeff_of_form(form) * coefficient row over the ansatz
    # pairs, that row being den times the true one
    den, pairs = hodge.hk_ansatz(k)
    out = [0] * (len(hodge.UNKNOWNS[k]) + 1)
    for row, form in pairs:
        c = coeff_of_form(form)
        out = [a + c * b for a, b in zip(out, row)]
    return den, tuple(out)


def test_ansatz_pins_leading_coefficient():
    # the q^0 y^{2k} coefficient is the constant k + 1
    for k in (2, 3):
        den, top = _ansatz_value(k, lambda form: form.coeff(0, (2 * k,)))
        assert top == (0,) * len(hodge.UNKNOWNS[k]) + ((k + 1) * den,)


def test_ansatz_ev_is_euler():
    # y = 1 evaluation of the ansatz collapses to the Euler unknown alone
    for k in (2, 3):
        den, ev = _ansatz_value(k, lambda form: form.collapse_y().coeff(0))
        assert ev == tuple(den * int(n == "Euler") for n in hodge.UNKNOWNS[k]) + (0,)


def test_ansatz_is_integral_over_one_denominator():
    # Euler/6 at k = 2 and Euler/4 at k = 3 set den; rows and forms are integral
    for k, want in ((2, 6), (3, 4)):
        den, pairs = hodge.hk_ansatz(k)
        assert den == want
        for row, form in pairs:
            assert all(type(v) is int for v in row)
            assert form.is_integral


def test_ansatz_only_known_cases():
    with pytest.raises(hodge.HodgeError):
        hodge.hk_ansatz(4)
    with pytest.raises(hodge.HodgeError):
        hodge.hk_ansatz(1)


# ---------------------------------------------------------------- systems


def test_k2_equations():
    sys2 = hodge.hk_match(2)
    assert sys2.unknowns == ("h11", "h12", "h22", "Euler")
    assert [relation_str(K2, e) for e in sys2.equations] == [
        "Euler - 12*h11 + 6*h12 - 72",
        "2*Euler + 6*h12 - 3*h22 + 48",
        "Euler - 4*h11 + 4*h12 - h22 - 8",
    ]
    assert all(primitive(K2, e) == e for e in sys2.equations)
    # the total-Euler equation is dependent on the two coefficient matches
    e0, e1, e2 = sys2.equations
    assert [a + b - 3 * c for a, b, c in zip(e0, e1, e2)] == [0] * 5
    assert sys2.parities == (((0, 1, 0, 0, 0), 2),)


def test_k2_euler_elimination():
    rels = hodge.hk_match(2).eliminate("Euler")
    assert len(rels) == 1
    assert relation_str(K2, rels[0]) == "8*h11 - 2*h12 - h22 + 64"
    assert rels[0] == (8, -2, -1, 0, 64)
    assert hodge.hk_match(2).derived() == rels


def test_k3_equations():
    sys3 = hodge.hk_match(3)
    assert sys3.unknowns == ("h11", "h12", "h13", "h22", "h23", "h33", "Euler", "A")
    assert len(sys3.equations) == 4
    assert relation_str(sys3.unknowns, sys3.equations[0]) == "A - 2*h11 + 2*h12 - h13 + 120"
    assert sys3.parities[1] == ((0, 1, 0, 0, 1, 0, 0, 0, 0), 2)


def test_k3_middle_elimination():
    sys3 = hodge.hk_match(3)
    rels = sys3.eliminate("A", indices=(1, 2))
    assert [relation_str(sys3.unknowns, r) for r in rels] == [
        "7*Euler + 24*h12 - 16*h13 - 24*h22 + 28*h23 - 8*h33 + 56"
    ]
    assert sys3.derived() == rels


def test_eliminate_absent_name_returns_input():
    sys2 = hodge.hk_match(2)
    assert sys2.eliminate("h13") == sys2.equations


# ---------------------------------------------------------------- solutions


def _k2_point(h11, h12):
    # two-parameter solution family of the k = 2 equations
    return {
        "h11": h11,
        "h12": h12,
        "h22": 8 * h11 - 2 * h12 + 64,
        "Euler": 72 + 12 * h11 - 6 * h12,
    }


def test_witness_accepted():
    sys2 = hodge.hk_match(2)
    assert sys2.check({"h11": 21, "h12": 0, "h22": 232, "Euler": 324})
    assert _k2_point(21, 0)["h22"] == 232


def test_perturbed_witnesses_rejected():
    sys2 = hodge.hk_match(2)
    assert not sys2.check({"h11": 21, "h12": 0, "h22": 233, "Euler": 324})
    assert not sys2.check({"h11": 21, "h12": 0, "h22": 232, "Euler": 336})
    assert not sys2.check({"h11": 23, "h12": 0, "h22": 276, "Euler": 324})


def test_parity_rejects_separately():
    sys2 = hodge.hk_match(2)
    odd = _k2_point(21, 1)
    # every equation holds, only the parity constraint fails
    assert hodge.HodgeSystem(2, K2, sys2.equations, ()).check(odd)
    assert not sys2.check(odd)


def test_check_needs_every_unknown():
    with pytest.raises(hodge.HodgeError):
        hodge.hk_match(2).check({"h11": 21, "h12": 0, "h22": 232})


def test_family_euler_divisibility():
    sys2 = hodge.hk_match(2)
    for h11 in range(-3, 9):
        for h12 in range(-4, 5, 2):
            point = _k2_point(h11, h12)
            assert sys2.check(point)
            assert point["Euler"] % 12 == 0


def test_divisibility_constants():
    assert hodge.hk_divisibility(2) == 12
    assert hodge.hk_divisibility(2, use_parity=False) == 6
    assert hodge.hk_divisibility(3) == 8
    assert hodge.hk_divisibility(3, use_parity=False) == 4


def test_divisibility_reduces_once(monkeypatch):
    # the particular solution and the solution lattice come from one echelon
    calls = []
    echelon = _intlin.column_echelon_with_transform
    monkeypatch.setattr(_intlin, "column_echelon_with_transform",
                        lambda cols: calls.append(cols) or echelon(cols))
    assert hodge.hk_divisibility(3) == 8
    assert len(calls) == 1


def test_hk_match_unsupported():
    with pytest.raises(hodge.HodgeError):
        hodge.hk_match(5)
