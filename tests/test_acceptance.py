"""One test per acceptance criterion; each prints its own PASS/FAIL line.

The d_sp refinement criterion states a relation that is false for 8 | k, so
it is carried as a strict expected failure and paired with a green test of
the corrected relation.  Everything else must pass outright.
"""

import io
import math

import pytest

from genera import acceptance, divis, jacobi


@pytest.mark.parametrize(
    "crit",
    acceptance.CRITERIA,
    ids=[f"{c.num:02d}-{c.slug}" for c in acceptance.CRITERIA],
)
def test_criterion(crit):
    ok, detail = crit.run()
    status = "PASS" if ok else "FAIL"
    print(f"{status} {crit.num:2d} {crit.slug}: {detail}")
    if crit.expected_fail:
        # if this ever starts passing, the ledgered analysis is stale
        assert not ok, f"expected failure now passes: {detail}"
        pytest.xfail(detail)
    assert ok, detail


def test_dsp_corrected_relation():
    # d_sp(k) agrees with 2*d_clas(2k) exactly when 8 does not divide k;
    # at 8 | k the factor of two is absent
    for k in range(1, 49):
        want = divis.d_clas(2 * k) if k % 8 == 0 else 2 * divis.d_clas(2 * k)
        assert divis.d_sp(k) == want, k


def test_dsp_counterexamples_are_real():
    for k in (8, 16, 24):
        assert divis.d_sp(k) == 24 // math.gcd(k, 24)
        assert divis.d_sp(k) != 2 * divis.d_clas(2 * k)


def test_run_all_stream():
    buf = io.StringIO()
    ok = acceptance.run_all(buf)
    assert ok is False
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(acceptance.CRITERIA) == 14
    for line, crit in zip(lines, acceptance.CRITERIA):
        assert line.startswith(("PASS", "FAIL"))
        assert f" {crit.slug}: " in line
    assert sum(1 for l in lines if l.startswith("FAIL")) == 1


def test_ko_criterion_reports_the_verdict_note(monkeypatch):
    def rejecting(structure, k, euler):
        return divis.Verdict(structure, k, 2, False, "forced rejection note")

    monkeypatch.setattr(divis, "euler_verdict", rejecting)
    ok, detail = acceptance._crit_ko()
    assert ok is False
    assert "forced rejection note" in detail


def test_theta_multiplication_criterion_catches_a_wrong_phi04(monkeypatch):
    # phi04 + phi01^4 has the weight and index of phi04 but is not a(3z)/a(z)
    phi04, phi01 = jacobi._phi04, jacobi._phi01
    monkeypatch.setattr(jacobi, "_phi04", lambda q: phi04(q) + phi01(q) ** 4)
    ok, detail = acceptance._crit_theta_multiplication()
    assert (ok, detail) == (False, "phi04*a != a(3z)")
