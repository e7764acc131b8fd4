"""Closed-form divisibility constants, their cross-checks, and verdicts."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genera import divis
from genera.values import INF, divides, value_str


def test_d_clas_frozen():
    want = [INF, 12, 2, 6, 24, 4, 12, 3, 8, 12, 6, 2]
    assert [divis.d_clas(k) for k in range(1, 13)] == want


@given(st.integers(min_value=1, max_value=200))
def test_d_clas_closed_form_cases(k):
    got = divis.d_clas(k)
    if k == 1:
        assert got is INF
    elif k % 2 == 0:
        assert got == 12 // math.gcd(k // 2, 12)
    else:
        assert got == 24 // math.gcd((k - 3) // 2, 12)


@given(st.integers(min_value=1, max_value=100))
def test_d_sp_closed_form(k):
    assert divis.d_sp(k) == 24 // math.gcd(k, 24)


def test_d_ko_pattern():
    pattern = {0: 1, 1: INF, 2: 2, 3: INF}
    for k in range(1, 17):
        assert divis.d_ko(k) == pattern[k % 4], k


def test_d_su_small_values():
    # 2-part from k mod 8, 3-part from k mod 3
    assert divis.d_su(1) is INF
    assert [divis.d_su(k) for k in range(2, 10)] == [24, 2, 6, 24, 4, 12, 3, 8]


@given(st.integers(min_value=2, max_value=96))
def test_d_su_easy_vs_exact_gap(k):
    easy = divis.d_su_easy_closed(k)
    exact = divis.d_su(k)
    if k % 8 == 2 and k >= 10:
        assert exact == 2 * easy
    else:
        assert exact == easy


def test_reports_agreement():
    for k in range(1, 13):
        assert divis.d_clas_report(k).agreement, k


def test_report_serialization():
    obj = divis.d_clas_report(1).to_obj()
    assert obj["value"] == "inf"
    assert obj["agreement"] is True
    assert obj["sources"] == [["closed_form", "inf"], ["basis_gcd", "inf"]]


def test_verdicts_sp():
    assert divis.euler_verdict("Sp", 1, 24).ok
    assert divis.euler_verdict("Sp", 1, 48).ok
    assert not divis.euler_verdict("Sp", 1, 25).ok
    assert divis.euler_verdict("Sp", 24, 7).ok  # constant 1 allows anything


def test_verdicts_su():
    assert divis.euler_verdict("SU", 1, 0).ok
    assert not divis.euler_verdict("SU", 1, 24).ok
    assert divis.euler_verdict("SU", 2, 24).ok
    assert not divis.euler_verdict("SU", 2, 12).ok


def test_verdicts_so():
    assert divis.euler_verdict("SO", 2, 2).ok
    assert not divis.euler_verdict("SO", 2, 3).ok
    v = divis.euler_verdict("SO", 3, 7)
    assert v.ok and v.constant is None
    assert divis.euler_verdict("SO", 6, 5).ok is False


def test_verdict_validation():
    with pytest.raises(ValueError):
        divis.euler_verdict("U", 2, 4)
    with pytest.raises(ValueError):
        divis.euler_verdict("Sp", 0, 4)


def test_table_rows_shape():
    rows = divis.table_rows(4)
    assert [r["k"] for r in rows] == ["1", "2", "3", "4"]
    assert list(rows[0].keys()) == list(divis.TABLE_COLUMNS)
    assert rows[0]["d_sp"] == "24"
    assert rows[0]["d_clas"] == "inf"


def test_verify_clas_rows_all_agree():
    rows = divis.verify_clas_rows(12)
    assert all(r["agree"] == "yes" for r in rows)


def test_inf_value_semantics():
    assert value_str(INF) == "inf"
    assert divides(INF, 0)
    assert not divides(INF, 24)
    assert divides(6, 24)
    assert not divides(5, 24)
