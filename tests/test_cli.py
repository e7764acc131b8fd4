"""End-to-end runs of the command line against frozen outputs and exit codes."""

import json
import os

import pytest

from genera.cli import main


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
], ids=["not-an-object", "one-cell", "to-1", "top-below", "bottom-attach", "no-attach"])
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
    for i, (window, groups, action) in enumerate(cases):
        f = tmp_path / f"table{i}.json"
        f.write_text(json.dumps({"name": "bad", "window": window,
                                 "groups": groups, "action": action}))
        rc, out, err = run(capsys, "cells", "order", "--table", str(f),
                           "--element", "one")
        assert rc == 2 and out == ""
        assert err.startswith("error:")


def test_cells_order(capsys):
    rc, out, _ = run(capsys, "cells", "order", "--table", "pi_S",
                     "--element", "eta,8*nu")
    assert rc == 0
    assert json.loads(out) == {"element": "eta,8*nu", "order": "6", "table": "pi_S"}


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


def test_bundled_name_still_wins_without_override(capsys):
    rc, out, _ = run(capsys, "genus", "euler", "--chern", "k3")
    assert rc == 0 and out == "24\n"


def test_unknown_data_name(capsys):
    rc, _out, err = run(capsys, "cells", "order", "--table", "pi_nope",
                        "--element", "eta")
    assert rc == 2
    assert "pi_nope" in err
