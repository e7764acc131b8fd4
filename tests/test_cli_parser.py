"""The argument parser's help, usage errors and parse results, pinned byte for byte.

Each case runs cli.main on one argv and compares stdout, stderr and the exit
code with tests/data/cli_parser_golden.json. argparse's wording and wrapping
differ between Python versions and with the terminal width, so the cases run
at COLUMNS=80 and the file records the Python version it was written with.
To rewrite it after a deliberate change to a help string, run

    PYTHONPATH=src python tests/test_cli_parser.py
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import sys

import pytest

from genera import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "cli_parser_golden.json"
PI_TMF = pathlib.Path(cli.__file__).resolve().parent / "data" / "pi_tmf.json"

GROUPS = {
    "jf": ("gen", "check"),
    "genus": ("compute", "euler"),
    "divis": ("table", "verify-clas", "verdict"),
    "cells": ("homotopy", "order", "dsu-easy"),
    "hk": ("solve",),
    "selftest": (),
}

ORDER = ("cells", "order", "--table", "mytable", "--element")

CASES = (
    [["--help"], ["-h"]]
    + [[group, "--help"] for group in GROUPS]
    + [[group, sub, "--help"] for group, subs in GROUPS.items() for sub in subs]
    + [[], ["jf"], ["cells"], ["bogus"], ["jf", "gen", "x"], ["jf", "bogus"],
       ["divis", "verify-clas"], ["selftest", "extra"], ["--data-dir"],
       ["cells", "order", "--table"], ["genus", "compute", "--chern", "k3", "--nvars", "9"]]
    # the data directory is "D" or "jf" under the working directory, and holds
    # a copy of pi_tmf named mytable
    + [["--data-dir", "D", *ORDER, "eta"],
       ["--data", "D", *ORDER, "2*nu"],
       ["--data-dir", "jf", *ORDER, "eta,nu"],
       ["--data-dir", "jf", "jf", "gen", "a", "--qmax", "1"],
       ["--data-dir", "cells", "jf", "check"]]
)


def capture(argv, cwd) -> dict:
    """Exit code, stdout and stderr of cli.main(argv), run in cwd at COLUMNS=80."""
    for name in ("D", "jf"):
        (cwd / name).mkdir(exist_ok=True)
        shutil.copyfile(PI_TMF, cwd / name / "mytable.json")
    saved = os.getcwd(), os.environ.get("COLUMNS")
    out, err = io.StringIO(), io.StringIO()
    os.chdir(cwd)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    finally:
        os.chdir(saved[0])
        if saved[1] is None:
            os.environ.pop("COLUMNS")
        else:
            os.environ["COLUMNS"] = saved[1]
    return {"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert [case["argv"] for case in _golden()["cases"]] == CASES


@pytest.mark.skipif(sys.version_info[:2] != tuple(_golden()["python"]),
                    reason="argparse output is pinned for one Python version")
@pytest.mark.parametrize("case", _golden()["cases"], ids=lambda c: " ".join(c["argv"]) or "-")
def test_parser_output_is_pinned(case, tmp_path):
    assert capture(case["argv"], tmp_path) == case


def test_every_group_is_built_without_argv():
    parser = cli.build_parser()
    groups = parser._subparsers._group_actions[0].choices
    assert list(groups) == list(GROUPS)
    for name, subs in GROUPS.items():
        actions = groups[name]._subparsers
        got = () if actions is None else tuple(actions._group_actions[0].choices)
        assert got == subs, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = [capture(argv, pathlib.Path(tmp)) for argv in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"python": list(sys.version_info[:2]), "cases": cases},
                                 indent=1) + "\n", encoding="utf-8")
