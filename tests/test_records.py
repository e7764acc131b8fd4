"""Value semantics of the cells, divis and hodge records."""

import pathlib

import pytest

from genera import cells, divis, hodge
from genera._data import resolve_data

# builder (called twice for an equal copy), and the exact repr
SAMPLES = {
    "Gen": (lambda: cells.Gen("eta", 1, 0, 2), "Gen(name='eta', degree=1, index=0, order=2)"),
    "Element": (lambda: cells.table_load("pi_S").unit("eta"), "Element(degree=1, vector=(1,))"),
    "CellComplex": (lambda: cells.complex_load("tmf_mod_nu"),
                    "CellComplex(name='tmf_mod_nu', bottom=0, top=4, attach=((1, 'nu'),))"),
    "AbGroup": (lambda: cells.AbGroup(1, (2, 3)), "AbGroup(free_rank=1, torsion=(2, 3))"),
    "CofiberGroup": (
        lambda: cells.cofiber_homotopy(cells.complex_load("tmf_mod_eta"),
                                       cells.table_load("pi_tmf"), 3),
        "CofiberGroup(complex_name='tmf_mod_eta', degree=3, coker=AbGroup(free_rank=0, "
        "torsion=(12,)), ker=AbGroup(free_rank=0, torsion=()))"),
    "DivReport-inf": (lambda: divis.d_clas_report(1),
                      "DivReport(kind='clas', k=1, value=inf, sources=(('closed_form', inf), "
                      "('basis_gcd', inf)), agreement=True)"),
    "DivReport": (lambda: divis.d_clas_report(4),
                  "DivReport(kind='clas', k=4, value=6, sources=(('closed_form', 6), "
                  "('basis_gcd', 6)), agreement=True)"),
    "Verdict": (lambda: divis.euler_verdict("SO", 4, 7),
                "Verdict(structure='SO', k=4, constant=None, divides=True, "
                "note='no constraint at this dimension')"),
    "HodgeSystem": (
        lambda: hodge.HodgeSystem(2, ("h12", "Euler"), ((1, -1, 0),), (((1, 0, 0), 2),)),
        "HodgeSystem(k=2, unknowns=('h12', 'Euler'), equations=((1, -1, 0),), "
        "parities=(((1, 0, 0), 2),))"),
}


@pytest.mark.parametrize("label", SAMPLES)
def test_record_semantics(label):
    build, text = SAMPLES[label]
    rec, copy = build(), build()
    assert rec == copy and hash(rec) == hash(copy)
    assert repr(rec) == text
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(rec, field, 0)
    assert repr(rec) == text


def test_graded_table_compares_and_hashes_by_identity(tmp_path):
    text = pathlib.Path(resolve_data("pi_S")).read_text()
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(text)
    a, b = (cells.table_load(str(tmp_path / name)) for name in ("a.json", "b.json"))
    assert a is not b and a != b and a == a
    assert (a.name, a.lo, a.hi, a.groups, dict(a.action)) == (
        b.name, b.lo, b.hi, b.groups, dict(b.action))
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    with pytest.raises(AttributeError):
        a.name = "x"


def test_records_take_fields_by_position_or_name():
    assert cells.AbGroup(free_rank=1, torsion=(2, 3)) == cells.AbGroup(1, (2, 3))
    assert divis.Verdict("SO", 4, constant=None, divides=True, note="n") == (
        divis.Verdict("SO", 4, None, True, "n"))
    for bad in ((1,), (1, (2,), 3)):
        with pytest.raises(TypeError):
            cells.AbGroup(*bad)
    for named in ({"free_rank": 2}, {"torsion": (2,), "order": 2}):
        with pytest.raises(TypeError):
            cells.AbGroup(1, **named)
