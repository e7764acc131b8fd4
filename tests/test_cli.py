"""End-to-end runs of the command line against frozen outputs and exit codes."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from genera._data import resolve_data
from genera.cli import NVARS_CAP, QMAX_CAP, main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------- jf


def test_jf_gen_shape_and_stability(capsys):
    rc, out, err = run(capsys, "jf", "gen", "a", "--qmax", "1")
    assert rc == 0 and err == ""
    obj = json.loads(out)
    assert obj["weight2"] == -2
    assert obj["index2"] == 1
    assert obj["nvars"] == 1
    assert obj["integral"] is True
    assert obj["terms"][0] == [0, [-1], "-1"]
    rc2, out2, _ = run(capsys, "jf", "gen", "a", "--qmax", "1")
    assert out2 == out  # byte-stable across runs


def test_jf_gen_rejects_unknown_generator(capsys):
    rc, _out, err = run(capsys, "jf", "gen", "bogus", "--qmax", "1")
    assert rc == 2
    assert "invalid choice" in err


def test_jf_gen_check_roundtrip(tmp_path, capsys):
    rc, out, _ = run(capsys, "jf", "gen", "phi01", "--qmax", "2")
    assert rc == 0
    f = tmp_path / "phi01.json"
    f.write_text(out)
    rc, out, _ = run(capsys, "jf", "check", str(f), "--lambda", "2")
    assert rc == 0
    rep = json.loads(out)
    assert rep == {
        "lambda": "2",
        "ok": True,
        "pairs_checked": "4",
        "vacuous": False,
        "violations": [],
    }


def test_jf_check_flags_corruption(tmp_path, capsys):
    rc, out, _ = run(capsys, "jf", "gen", "a", "--qmax", "2")
    obj = json.loads(out)
    obj["terms"][2][2] = "5"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "jf", "check", str(f))
    assert rc == 1
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["violations"]


def test_jf_check_prints_fractional_violations_as_p_over_q(tmp_path, capsys):
    obj = {"weight2": -2, "index2": 2, "nvars": 1, "qmax": 2, "integral": False,
           "terms": [[0, [0], "3/4"], [1, [2], "-5"]]}
    f = tmp_path / "frac.json"
    f.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "jf", "check", str(f))
    assert (rc, err) == (1, "")
    assert json.loads(out) == {
        "lambda": "1",
        "ok": False,
        "pairs_checked": "3",
        "vacuous": False,
        "violations": [["0", "0", "1", "4", "3/4", "0"],
                       ["1", "-4", "0", "0", "0", "3/4"],
                       ["1", "-2", "1", "2", "0", "-5"]],
    }


def test_jf_check_rejects_lambda_zero(tmp_path, capsys):
    # lambda = 0 maps each coefficient onto itself: a corrupted file would
    # pass it, so it is a usage error rather than an "ok" report
    rc, out, _ = run(capsys, "jf", "gen", "phi01", "--qmax", "3")
    obj = json.loads(out)
    obj["terms"][2][2] = "999"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "jf", "check", str(f), "--lambda", "1")
    assert rc == 1 and json.loads(out)["violations"]
    rc, out, err = run(capsys, "jf", "check", str(f), "--lambda", "0")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "lambda" in err


def test_jf_check_rejects_malformed_json(tmp_path, capsys):
    # not JSON, a non-object file, an object missing every key, a bad term
    bad_term = '{"weight2": 0, "index2": 1, "nvars": 1, "qmax": 1, "terms": [5]}'
    for i, text in enumerate(("not json at all", "[1, 2]", bad_term, "{}")):
        f = tmp_path / f"junk{i}.json"
        f.write_text(text)
        rc, out, err = run(capsys, "jf", "check", str(f))
        assert rc == 2 and out == ""
        assert err.startswith("error:")
    assert "weight2" in err
    # a value that is not a JSON integer, where one belongs, names its key
    good = {"weight2": 0, "index2": 2, "nvars": 1, "qmax": 1, "terms": [[0, [0], "1"]]}
    for key in ("weight2", "index2", "nvars", "qmax"):
        for value in ([0], 2.5, "2", True):
            f = tmp_path / f"{key}.json"
            f.write_text(json.dumps({**good, key: value}))
            rc, out, err = run(capsys, "jf", "check", str(f))
            assert rc == 2 and out == ""
            assert err.startswith("error:") and key in err
    for term, what in (([0.5, [0], "1"], "q-power"), ([0, ["0"], "1"], "y-exponent"),
                       ([0, [0], "1/0"], "zero denominator")):
        f = tmp_path / "term.json"
        f.write_text(json.dumps({**good, "terms": [term]}))
        rc, out, err = run(capsys, "jf", "check", str(f))
        assert rc == 2 and out == "" and what in err


@pytest.mark.parametrize("value", [True, 0.30000000000000004, None, [1], {"n": 1}],
                         ids=["bool", "float", "null", "list", "object"])
def test_jf_check_rejects_coefficient_of_wrong_type(tmp_path, capsys, value):
    rc, out, _ = run(capsys, "jf", "gen", "phi01", "--qmax", "1")
    obj = json.loads(out)
    obj["terms"][0][2] = value
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "jf", "check", str(f))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "coefficient" in err


@pytest.mark.parametrize("argv", [("jf", "gen", "a"),
                                  ("genus", "compute", "--chern", "point1")])
def test_qmax_cap(tmp_path, capsys, argv):
    (tmp_path / "point1.json").write_text(json.dumps({"dimc": 1, "numbers": {"1": 2}}))
    argv = ("--data-dir", str(tmp_path)) + argv
    rc, out, err = run(capsys, *argv, "--qmax", str(QMAX_CAP))
    assert rc == 0 and err == ""
    assert json.loads(out)["qmax"] == QMAX_CAP
    rc, out, err = run(capsys, *argv, "--qmax", str(QMAX_CAP + 1))
    assert rc == 2 and out == ""
    assert f"must be <= {QMAX_CAP}" in err


def test_nvars_cap(tmp_path, capsys):
    (tmp_path / "point1.json").write_text(json.dumps({"dimc": 1, "numbers": {"1": 2}}))
    argv = ("--data-dir", str(tmp_path), "genus", "compute", "--chern", "point1",
            "--qmax", "2", "--nvars")
    rc, out, err = run(capsys, *argv, str(NVARS_CAP))
    assert rc == 0 and err == ""
    assert json.loads(out)["nvars"] == NVARS_CAP
    rc, out, err = run(capsys, *argv, str(NVARS_CAP + 1))
    assert rc == 2 and out == ""
    assert f"must be <= {NVARS_CAP}" in err


# ---------------------------------------------------------------- genus


def test_genus_euler_bare_numbers(capsys):
    rc, out, _ = run(capsys, "genus", "euler", "--chern", "k3")
    assert rc == 0 and out == "24\n"
    rc, out, _ = run(capsys, "genus", "euler", "--chern", "quintic")
    assert rc == 0 and out == "-200\n"


def test_genus_compute_k3(capsys):
    rc, out, _ = run(capsys, "genus", "compute", "--chern", "k3", "--nvars", "1",
                     "--qmax", "1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["weight2"] == 0
    assert obj["index2"] == 2
    assert obj["terms"][:3] == [[0, [-2], "2"], [0, [0], "20"], [0, [2], "2"]]


@pytest.mark.parametrize("nvars", [1, 2])
def test_genus_compute_point(tmp_path, capsys, nvars):
    # a point's genus is its one Chern number, the empty product of factors
    (tmp_path / "point.json").write_text(json.dumps({"dimc": 0, "numbers": {"": 5}}))
    rc, out, err = run(capsys, "--data-dir", str(tmp_path), "genus", "compute",
                       "--chern", "point", "--nvars", str(nvars), "--qmax", "2")
    want = {"index2": 0, "integral": True, "nvars": nvars, "qmax": 2,
            "terms": [[0, [0] * nvars, "5"]], "weight2": 0}
    assert (rc, out, err) == (0, json.dumps(want, indent=2, sort_keys=True) + "\n", "")


def test_genus_chern_literal_path(tmp_path, capsys):
    f = tmp_path / "scaled.json"
    f.write_text(json.dumps({"dimc": 2, "numbers": {"2": 30, "1,1": 0}}))
    rc, out, _ = run(capsys, "genus", "euler", "--chern", str(f))
    assert rc == 0 and out == "30\n"


def test_genus_missing_chern_key_is_reported(tmp_path, capsys):
    f = tmp_path / "hole.json"
    f.write_text(json.dumps({"dimc": 2, "numbers": {"2": 24}}))
    rc, _out, err = run(capsys, "genus", "compute", "--chern", str(f),
                        "--nvars", "1", "--qmax", "1")
    assert rc == 2
    assert err.startswith("error:")
    # checked at load, so even the Euler number, which needs only c_2, refuses it
    rc, out, err = run(capsys, "genus", "euler", "--chern", str(f))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "partition 1,1" in err


def test_genus_non_integer_chern_data_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "fuzzy.json"
    f.write_text(json.dumps({"dimc": 2, "numbers": {"2": 24.7, "1,1": True}}))
    rc, out, err = run(capsys, "genus", "euler", "--chern", str(f))
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_genus_non_object_chern_data_is_a_usage_error(tmp_path, capsys):
    for i, obj in enumerate(([1, 2], {"dimc": 2, "numbers": [24, 0]})):
        f = tmp_path / f"shape{i}.json"
        f.write_text(json.dumps(obj))
        rc, out, err = run(capsys, "genus", "euler", "--chern", str(f))
        assert rc == 2 and out == ""
        assert err.startswith("error:")


def test_genus_aliased_chern_keys_are_a_usage_error(tmp_path, capsys):
    # each file would load with c_2 = 7 if a later key silently replaced "2"
    numbers = '"2": 24, "1,1": 0'
    for i, (text, named) in enumerate((
            ('{"dimc": 2, "numbers": {%s, "02": 7}}' % numbers, "'02'"),
            ('{"dimc": 2, "numbers": {%s, "2": 7}}' % numbers, "repeated key '2'"),
            ('{"label": 5, "dimc": 2, "numbers": {%s}}' % numbers, "label"))):
        f = tmp_path / f"alias{i}.json"
        f.write_text(text)
        rc, out, err = run(capsys, "genus", "euler", "--chern", str(f))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and named in err


# ---------------------------------------------------------------- divis


def test_divis_table_csv(capsys):
    rc, out, _ = run(capsys, "divis", "table", "--kmax", "3", "--format", "csv")
    assert rc == 0
    assert out.splitlines() == [
        "k,d_clas,d_su_exact,d_su_easy,d_sp,d_ko",
        "1,inf,inf,inf,24,inf",
        "2,12,24,24,12,2",
        "3,2,2,2,8,inf",
    ]


def test_divis_table_md(capsys):
    rc, out, _ = run(capsys, "divis", "table", "--kmax", "2", "--format", "md")
    lines = out.splitlines()
    assert lines[0] == "| k | d_clas | d_su_exact | d_su_easy | d_sp | d_ko |"
    assert set(lines[1].strip("| ").split(" | ")) == {"---"}
    assert lines[2] == "| 1 | inf | inf | inf | 24 | inf |"


def test_divis_table_json(capsys):
    rc, out, _ = run(capsys, "divis", "table", "--kmax", "12", "--format", "json")
    rows = json.loads(out)
    assert len(rows) == 12
    assert rows[0]["d_sp"] == "24"
    assert rows[9] == {
        "k": "10",
        "d_clas": "12",
        "d_su_exact": "24",
        "d_su_easy": "12",
        "d_sp": "12",
        "d_ko": "2",
    }


def test_divis_verify_clas(capsys):
    rc, out, _ = run(capsys, "divis", "verify-clas", "--kmax", "6", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert all(r["agree"] == "yes" for r in rows)


def test_divis_verdict_exit_codes(capsys):
    rc, out, _ = run(capsys, "divis", "verdict", "--structure", "SU", "--k", "3",
                     "--euler", "144")
    assert rc == 0
    assert json.loads(out)["divides"] is True
    rc, out, _ = run(capsys, "divis", "verdict", "--structure", "SU", "--k", "3",
                     "--euler", "101")
    assert rc == 1
    assert json.loads(out)["divides"] is False
    rc, _out, err = run(capsys, "divis", "verdict", "--structure", "U", "--k", "3",
                        "--euler", "0")
    assert rc == 2


# ---------------------------------------------------------------- cells


def test_cells_homotopy(capsys):
    rc, out, _ = run(capsys, "cells", "homotopy", "--complex", "tmf_mod_nu",
                     "--table", "pi_tmf", "--deg", "5")
    assert rc == 0
    assert json.loads(out) == {
        "ambiguous": False,
        "coker": "0",
        "complex": "tmf_mod_nu",
        "degree": "5",
        "group": "Z/2",
        "ker": "Z/2",
        "order": "2",
    }


def test_cells_homotopy_needs_two_cells(tmp_path, capsys):
    nu = {"gen": "nu", "mult": 1}
    f = tmp_path / "three.json"
    f.write_text(json.dumps({"cells": [{"deg": 0}, {"deg": 4, "attach": nu},
                                       {"deg": 8, "attach": dict(nu, to=1)}]}))
    rc, out, err = run(capsys, "cells", "homotopy", "--complex", str(f),
                       "--table", "pi_tmf", "--deg", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "3 cells" in err


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"cells": [{"deg": 0}]},
    {"cells": [{"deg": 0}, {"deg": 4, "attach": {"gen": "nu", "mult": 1, "to": 1}}]},
    {"cells": [{"deg": 4}, {"deg": 2, "attach": {"gen": "nu", "mult": 1}}]},
    {"cells": [{"deg": 0, "attach": {"gen": "nu", "mult": 1}}, {"deg": 4}]},
    {"cells": [{"deg": 0}, {"deg": 4}]},
    {"cells": [{"deg": 0}, {"deg": 2.9, "attach": {"gen": "eta", "mult": "1"}}]},
], ids=["not-an-object", "one-cell", "to-1", "top-below", "bottom-attach", "no-attach",
        "float-deg-string-mult"])
def test_cells_homotopy_rejects_malformed_complex(tmp_path, capsys, obj):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "cells", "homotopy", "--complex", str(f),
                       "--table", "pi_tmf", "--deg", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_cells_malformed_table_is_a_usage_error(tmp_path, capsys):
    one = {"0": [{"gen": "one", "order": 0}]}
    cases = [
        ([0, 0], {"0": [1]}, []),
        ([0, 0], {"0": []}, [5]),
        (["0", "0"], one, []),  # the window takes JSON integers only
        ([0.0, 7.0], one, []),
        ([0, 0], one, [["one", "one", {"gen": "one"}]]),  # result without mult
        ([0, 0], one, [["one", "one", {"gen": "one", "mult": "1"}]]),
        ([0, 0], one, [["one", "one", [5]]]),  # list items: names or objects
    ]
    raws = [{"name": "bad", "window": window, "groups": groups, "action": action}
            for window, groups, action in cases]
    # connective takes a JSON boolean only
    raws.append({"name": "bad", "window": [0, 0], "connective": "false",
                 "groups": one, "action": []})
    for i, raw in enumerate(raws):
        f = tmp_path / f"table{i}.json"
        f.write_text(json.dumps(raw))
        rc, out, err = run(capsys, "cells", "order", "--table", str(f),
                           "--element", "one")
        assert rc == 2 and out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("kind, text, named", [
    ("complex", '{"cells": [{"deg": 0}, {"deg": 4, "attach": {"gen": "nu", "mult": 1, "mult": 2}}]}',
     "'mult'"),
    ("table", '{"name": "t", "window": [0, 0], "window": [0, 1],'
     ' "groups": {"0": [{"gen": "one", "order": 0}]}, "action": []}', "'window'"),
    ("jf", '{"weight2": 0, "index2": 2, "nvars": 1, "qmax": 0, "qmax": 1,'
     ' "terms": [[0, [2], "1"], [0, [0], "10"], [0, [-2], "1"]]}', "'qmax'"),
], ids=["complex", "table", "jf-check"])
def test_repeated_json_key_is_a_usage_error(tmp_path, capsys, kind, text, named):
    # json.load alone keeps the last value: the complex would attach 2*nu and
    # print a group, and the form would be read at qmax 1 and fail the law
    f = tmp_path / "dup.json"
    f.write_text(text)
    argv = {"complex": ["cells", "homotopy", "--complex", str(f), "--table", "pi_tmf",
                        "--deg", "4"],
            "table": ["cells", "order", "--table", str(f), "--element", "one"],
            "jf": ["jf", "check", str(f), "--lambda", "1"]}[kind]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: repeated key {named}\n"


def test_cells_order(capsys):
    rc, out, _ = run(capsys, "cells", "order", "--table", "pi_S",
                     "--element", "eta,8*nu")
    assert rc == 0
    assert json.loads(out) == {"element": "eta,8*nu", "order": "6", "table": "pi_S"}


def test_cells_order_escapes_a_table_name_as_json_does(tmp_path, capsys):
    name = 'pi_é"S'
    shutil.copy(resolve_data("pi_S"), tmp_path / f"{name}.json")
    rc, out, _ = run(capsys, "--data-dir", str(tmp_path), "cells", "order", "--table", name,
                     "--element", "eta,8*nu")
    expected = {"element": "eta,8*nu", "order": "6", "table": name}
    assert rc == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_cells_dsu_easy_md(capsys):
    rc, out, _ = run(capsys, "cells", "dsu-easy", "--kmax", "4", "--format", "md")
    assert rc == 0
    assert out.splitlines() == [
        "| k | engine | closed_form | agree |",
        "| --- | --- | --- | --- |",
        "| 1 | inf | inf | yes |",
        "| 2 | 24 | 24 | yes |",
        "| 3 | 2 | 2 | yes |",
        "| 4 | 6 | 6 | yes |",
    ]


# ---------------------------------------------------------------- hk


def test_hk_solve_k2(capsys):
    rc, out, _ = run(capsys, "hk", "solve", "--k", "2")
    assert rc == 0
    assert json.loads(out) == {
        "divisor": "12",
        "k": "2",
        "relations": [
            "Euler - 12*h11 + 6*h12 - 72 = 0",
            "2*Euler + 6*h12 - 3*h22 + 48 = 0",
            "Euler - 4*h11 + 4*h12 - h22 - 8 = 0",
            "8*h11 - 2*h12 - h22 + 64 = 0",
        ],
    }


def test_hk_solve_k3(capsys):
    rc, out, _ = run(capsys, "hk", "solve", "--k", "3")
    assert rc == 0
    obj = json.loads(out)
    assert obj["divisor"] == "8"
    assert len(obj["relations"]) == 5
    assert obj["relations"][-1] == (
        "7*Euler + 24*h12 - 16*h13 - 24*h22 + 28*h23 - 8*h33 + 56 = 0"
    )


HK_SOLVE_STDOUT = {
    2: (
        '{\n'
        '  "divisor": "12",\n'
        '  "k": "2",\n'
        '  "relations": [\n'
        '    "Euler - 12*h11 + 6*h12 - 72 = 0",\n'
        '    "2*Euler + 6*h12 - 3*h22 + 48 = 0",\n'
        '    "Euler - 4*h11 + 4*h12 - h22 - 8 = 0",\n'
        '    "8*h11 - 2*h12 - h22 + 64 = 0"\n'
        '  ]\n'
        '}\n'
    ),
    3: (
        '{\n'
        '  "divisor": "8",\n'
        '  "k": "3",\n'
        '  "relations": [\n'
        '    "A - 2*h11 + 2*h12 - h13 + 120 = 0",\n'
        '    "16*A - Euler - 8*h12 + 8*h22 - 4*h23 + 2072 = 0",\n'
        '    "12*A + Euler - 4*h13 + 4*h23 - 2*h33 + 1568 = 0",\n'
        '    "Euler - 4*h11 + 8*h12 - 4*h13 - 4*h22 + 4*h23 - h33 - 12 = 0",\n'
        '    "7*Euler + 24*h12 - 16*h13 - 24*h22 + 28*h23 - 8*h33 + 56 = 0"\n'
        '  ]\n'
        '}\n'
    ),
}


@pytest.mark.parametrize("k", [2, 3])
def test_hk_solve_stdout_is_pinned(capsys, k):
    # every relation and its exact formatting, byte for byte
    rc, out, err = run(capsys, "hk", "solve", "--k", str(k))
    assert (rc, out, err) == (0, HK_SOLVE_STDOUT[k], "")


def test_hk_solve_only_known_k(capsys):
    rc, _out, _err = run(capsys, "hk", "solve", "--k", "4")
    assert rc == 2


# ---------------------------------------------------------------- selftest


def test_selftest_reports_every_criterion(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 1  # one criterion is a documented open failure
    lines = out.splitlines()
    assert len(lines) == 14
    for i, line in enumerate(lines, start=1):
        assert line.startswith(("PASS", "FAIL"))
        assert line.split()[1] == str(i)
    fails = [l for l in lines if l.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL  7 dsp-refinement:")


# ---------------------------------------------------------------- plumbing


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_data_dir_flag(tmp_path, capsys):
    (tmp_path / "probe.json").write_text(
        json.dumps({"dimc": 2, "numbers": {"2": 36, "1,1": 0}})
    )
    before = os.environ.get("GENERA_DATA_DIR")
    rc, out, _ = run(capsys, "--data-dir", str(tmp_path), "genus", "euler",
                     "--chern", "probe")
    assert rc == 0 and out == "36\n"
    assert os.environ.get("GENERA_DATA_DIR") == before


def test_data_dir_env(tmp_path, capsys, monkeypatch):
    (tmp_path / "probe.json").write_text(
        json.dumps({"dimc": 2, "numbers": {"2": 42, "1,1": 0}})
    )
    monkeypatch.setenv("GENERA_DATA_DIR", str(tmp_path))
    rc, out, _ = run(capsys, "genus", "euler", "--chern", "probe")
    assert rc == 0 and out == "42\n"


def test_a_directory_under_data_dir_does_not_shadow_a_bundled_name(tmp_path, capsys,
                                                                   monkeypatch):
    (tmp_path / "k3.json").mkdir()
    rc, out, err = run(capsys, "--data-dir", str(tmp_path), "genus", "euler", "--chern", "k3")
    assert (rc, out, err) == (0, "24\n", "")
    bundled = resolve_data("k3")
    monkeypatch.setenv("GENERA_DATA_DIR", str(tmp_path))
    assert resolve_data("k3") == bundled


def test_a_directory_as_a_literal_data_path_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "k3.json").mkdir()
    rc, out, err = run(capsys, "genus", "euler", "--chern", str(tmp_path / "k3.json"))
    assert (rc, out) == (2, "")
    assert err == f"error: no such data file: {tmp_path / 'k3.json'}\n"


def test_bundled_name_still_wins_without_override(capsys):
    rc, out, _ = run(capsys, "genus", "euler", "--chern", "k3")
    assert rc == 0 and out == "24\n"


def test_unknown_data_name(capsys):
    rc, _out, err = run(capsys, "cells", "order", "--table", "pi_nope",
                        "--element", "eta")
    assert rc == 2
    assert "pi_nope" in err


STARTUP_PROBE = """
import contextlib, io, os, sys
import genera.cli
heavy = ("json", "dataclasses", "csv", "fractions", "decimal", "genera.series",
         "genera.modular", "genera.jacobi", "genera.cells", "genera.divis", "genera.hodge",
         "genera.acceptance", "genera.genus")
at_import = [m for m in heavy if m in sys.modules]
form = os.path.join(sys.argv[1], "phi01.json")
codes = []
with open(form, "w") as fh, contextlib.redirect_stdout(fh):
    codes.append(genera.cli.main(["jf", "gen", "phi01", "--qmax", "4"]))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(genera.cli.main(["jf", "check", form]))
    codes.append(genera.cli.main(["genus", "compute", "--chern", "k3", "--qmax", "4"]))
import json
print(json.dumps({"at_import": at_import, "codes": codes,
                  "dataclasses_after": "dataclasses" in sys.modules}))
"""


def test_series_commands_import_only_what_they_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {"at_import": [], "codes": [0, 0, 0], "dataclasses_after": False}


# json in sys.modules after import genera.cli and after each command, recorded
# before the probe imports json for its own output
JSON_PROBE = """
import contextlib, io, sys
import genera.cli
loaded, codes = ["json" in sys.modules], []
with contextlib.redirect_stdout(io.StringIO()):
    for command in sys.argv[1].split(" ; "):
        codes.append(genera.cli.main(command.split()))
        loaded.append("json" in sys.modules)
import json
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _json_probe(*commands) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", JSON_PROBE, " ; ".join(commands)],
                          capture_output=True, text=True, env=env, timeout=120,
                          cwd=SRC.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_that_only_write_json_never_import_it():
    got = _json_probe("jf gen phi04 --qmax 8", "divis table --kmax 8",
                      "divis table --kmax 8 --format csv", "divis verify-clas --kmax 12",
                      "divis verdict --structure SU --k 2 --euler 24",
                      "divis verdict --structure Sp --k 3 --euler 25",
                      "divis verdict --structure SO --k 6 --euler 3",
                      "hk solve --k 2", "hk solve --k 3")
    assert got == {"codes": [0, 0, 0, 0, 0, 1, 1, 0, 0], "loaded": [False] * 10}


@pytest.mark.parametrize("command", [
    "jf check tests/data/form_phi01_q1.json",
    "genus compute --chern k3 --qmax 4",
    "genus euler --chern quintic",
    "cells order --table pi_tmf --element eta",
    "cells homotopy --complex tmf_mod_nu --table pi_tmf --deg 5",
    "cells dsu-easy --kmax 12",
    "selftest",
])
def test_commands_that_parse_json_import_it(command):
    # each in a fresh process; selftest exits 1 for criterion 7
    assert _json_probe(command) == {"codes": [int(command == "selftest")],
                                    "loaded": [False, True]}


FRACTIONS_PROBE = """
import contextlib, io, json, os, sys
import genera.cli
chern = os.path.join(sys.argv[1], "c3.json")
with open(chern, "w") as fh:
    json.dump({"label": "c3", "dimc": 3, "numbers": {"3": 1, "2,1": 0, "1,1,1": 0}}, fh)
commands = [["jf", "gen", name, "--qmax", "6"]
            for name in ("a", "phi01", "phi032", "phi02", "phi04")]
commands += [["genus", "compute", "--chern", "k3", "--qmax", "6"],
             ["genus", "compute", "--chern", "k3", "--nvars", "2", "--qmax", "4"],
             ["genus", "compute", "--chern", "quintic", "--qmax", "4"],
             ["genus", "compute", "--chern", chern, "--nvars", "3", "--qmax", "2"],
             ["divis", "verify-clas", "--kmax", "12"],
             ["hk", "solve", "--k", "2"],
             ["hk", "solve", "--k", "3"],
             ["selftest"]]
codes, integral = [], []
form = os.path.join(sys.argv[1], "phi032.json")
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        codes.append(genera.cli.main(argv))
    if argv[0] == "genus":
        integral.append(json.loads(buf.getvalue())["integral"])
    if argv[:3] == ["jf", "gen", "phi032"]:
        with open(form, "w") as fh:
            fh.write(buf.getvalue())
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(genera.cli.main(["jf", "check", form, "--lambda", "-1"]))
stdlib = ("fractions", "decimal", "numbers")
before_violation = [m for m in stdlib if m in sys.modules]
with open(form) as fh:
    obj = json.load(fh)
obj["terms"][0][2] = str(int(obj["terms"][0][2]) + 1)
with open(form, "w") as fh:
    json.dump(obj, fh)
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(genera.cli.main(["jf", "check", form]))
print(json.dumps({"codes": codes, "integral": integral, "before_violation": before_violation,
                  "after_violation": [m for m in stdlib if m in sys.modules]}))
"""


def test_series_commands_run_without_fractions(tmp_path):
    # the series stack, the Hodge system, the criteria and a clean jf check run
    # on integers; only a violation row builds Fractions
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FRACTIONS_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0] * 12 + [1, 0, 1], "integral": [True, True, True, False],
        "before_violation": [], "after_violation": ["fractions", "decimal", "numbers"]}


def test_cells_dsu_easy_reads_each_data_file_once(capsys, monkeypatch):
    from genera import cells

    loads, audited = [], []

    def counted(load, log):
        def wrapper(arg):
            log.append(arg)
            return load(arg)
        return wrapper

    monkeypatch.setattr(cells, "table_load", counted(cells.table_load, loads))
    monkeypatch.setattr(cells, "complex_load", counted(cells.complex_load, loads))
    monkeypatch.setattr(cells, "_audit", counted(cells._audit, audited))
    rc, _out, _ = run(capsys, "cells", "dsu-easy", "--kmax", "40")
    assert rc == 0
    assert sorted(loads) == ["pi_tmf", "tmf_mod_eta"]
    # table_load audits on every call: one audit of pi_tmf per command
    assert [table.name for table in audited] == ["pi_tmf"]


CHECKS_PROBE = """
import contextlib, io, json, sys
import genera.cli
exact = (["cells", "order", "--table", "pi_tmf", "--element", "eta,2*nu"],
         ["cells", "homotopy", "--complex", "tmf_mod_nu", "--table", "pi_tmf", "--deg", "5"],
         ["cells", "dsu-easy", "--kmax", "12"],
         ["divis", "verdict", "--structure", "Sp", "--k", "3", "--euler", "24"],
         ["genus", "euler", "--chern", "k3"])
watched = ("fractions", "decimal", "genera.series", "genera.modular", "genera.jacobi")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [genera.cli.main(c) for c in exact]
    series_after_exact = [m for m in watched if m in sys.modules]
    codes.append(genera.cli.main(["divis", "verify-clas", "--kmax", "12"]))
    series_after_verify_clas = [m for m in watched if m in sys.modules]
    codes.append(genera.cli.main(["hk", "solve", "--k", "3"]))
print(json.dumps({"codes": codes, "dataclasses_after": "dataclasses" in sys.modules,
                  "series_after_exact": series_after_exact,
                  "series_after_verify_clas": series_after_verify_clas}))
"""


def test_check_commands_never_import_dataclasses():
    # nor, before the first command that reads a series, the series layer;
    # verify-clas loads that layer but not fractions
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHECKS_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0] * 7, "dataclasses_after": False, "series_after_exact": [],
        "series_after_verify_clas": ["genera.series", "genera.modular", "genera.jacobi"]}


# the freeze count after main with an argv list, then after main run as the
# program, with its arguments in sys.argv
FREEZE_PROBE = """
import contextlib, gc, io, json, sys
import genera.cli
argv = ["divis", "verdict", "--structure", "SU", "--k", "2", "--euler", "24"]
codes, frozen = [], []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(genera.cli.main(list(argv)))
    frozen.append(gc.get_freeze_count())
    sys.argv = ["genera", *argv]
    codes.append(genera.cli.main())
    frozen.append(gc.get_freeze_count())
print(json.dumps({"codes": codes, "frozen": frozen}))
"""


def test_only_the_program_freezes_the_start_up_heap():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0, 0]
    assert got["frozen"][0] == 0 and got["frozen"][1] > 0, got


ARGPARSE_PROBE = """
import contextlib, io, json, sys
import genera.cli
at_import = "argparse" in sys.modules
commands = (["jf", "gen", "a", "--qmax", "2"], ["genus", "euler", "--chern", "k3"],
            ["divis", "verdict", "--structure", "SU", "--k", "2", "--euler", "24"],
            ["cells", "order", "--table", "pi_tmf", "--element", "eta"],
            ["hk", "solve", "--k", "2"], ["selftest"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [genera.cli.main(c) for c in commands]
    after_commands = "argparse" in sys.modules
    codes.append(genera.cli.main(["--help"]))
print(json.dumps({"codes": codes, "at_import": at_import, "after_commands": after_commands,
                  "after_help": "argparse" in sys.modules}))
"""


HELP_PROBE = """
import contextlib, io, json, sys
import genera.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["--help"], ["bogus"], ["jf", "gen", "nope"]):
        codes.append(genera.cli.main(argv))
watched = ("genera.series", "genera.modular", "genera.jacobi")
print(json.dumps({"codes": codes, "loaded": [m for m in watched if m in sys.modules]}))
"""


def test_help_and_usage_errors_never_import_the_series_layer():
    # jf gen's choices are written in the table, not read from jacobi
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", HELP_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 2, 2], "loaded": []}


def test_jf_gen_choices_are_the_gradings_in_order():
    from genera import cli, jacobi

    arguments = dict(cli._COMMANDS["jf"][1]["gen"][2])
    assert arguments["name"]["choices"] == tuple(jacobi.GRADINGS)


def test_well_formed_commands_never_import_argparse():
    # one command of every group; selftest exits 1 for criterion 7
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", ARGPARSE_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0, 0, 1, 0], "at_import": False,
                                       "after_commands": False, "after_help": True}
