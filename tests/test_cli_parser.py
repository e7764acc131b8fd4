"""The argument parser's help, usage errors and parse results, pinned byte for byte.

Each case runs cli.main on one argv and compares stdout, stderr and the exit
code with tests/data/cli_parser_golden.json. argparse's wording and wrapping
differ between Python versions and with the terminal width, so the cases run
at COLUMNS=80 and the file records the Python version it was written with.
The table parse that main tries first must agree with argparse wherever it
answers, and leave help and usage errors to argparse.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from genera import cli
from genera.jacobi import GRADINGS

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


# Values each argument accepts, drawn as argv tokens. A string value may be any
# text that argparse does not take for an option string, "-<digits>" included.
TEXT = st.one_of(st.text(max_size=8).filter(lambda t: not t.startswith("-")),
                 st.integers(max_value=-1).map(str))
INT = st.integers(-10**6, 10**6).map(str)
POSITIVE = st.integers(1, 10**6).map(str)
FORMAT = st.sampled_from(["json", "csv", "md"])
QMAX = st.integers(0, cli.QMAX_CAP).map(str)
ARGS = {
    ("jf", "gen"): {"name": st.sampled_from(list(GRADINGS)), "--qmax": QMAX},
    ("jf", "check"): {"file": TEXT, "--lambda": INT},
    ("genus", "compute"): {"--chern": TEXT, "--nvars": st.integers(1, cli.NVARS_CAP).map(str),
                           "--qmax": QMAX},
    ("genus", "euler"): {"--chern": TEXT},
    ("divis", "table"): {"--kmax": POSITIVE, "--format": FORMAT},
    ("divis", "verify-clas"): {"--kmax": POSITIVE, "--format": FORMAT},
    ("divis", "verdict"): {"--structure": st.sampled_from(["SU", "Sp", "SO"]),
                           "--k": POSITIVE, "--euler": INT},
    ("cells", "homotopy"): {"--complex": TEXT, "--table": TEXT, "--deg": INT},
    ("cells", "order"): {"--table": TEXT, "--element": TEXT},
    ("cells", "dsu-easy"): {"--kmax": POSITIVE, "--format": FORMAT},
    ("hk", "solve"): {"--k": st.sampled_from(["2", "3"])},
    ("selftest",): {},
}
REQUIRED = {"--chern", "--kmax", "--structure", "--k", "--euler", "--complex", "--table",
            "--deg", "--element"}


@st.composite
def well_formed(draw):
    """argv of one subcommand as (head, units): the optional --data-dir DIR and the
    command, then one unit per option or positional. Options come shuffled,
    repeated or omitted, and positionals anywhere among them."""
    command = draw(st.sampled_from(list(ARGS)))
    units = []
    for flag, values in ARGS[command].items():
        if flag.startswith("-"):
            count = draw(st.integers(1 if flag in REQUIRED else 0, 2))
            units += [[flag, draw(values)] for _ in range(count)]
    units = draw(st.permutations(units))
    for name, values in ARGS[command].items():
        if not name.startswith("-"):
            units.insert(draw(st.integers(0, len(units))), [draw(values)])
    prefix = draw(st.sampled_from([[], ["--data-dir", draw(TEXT)]]))
    return prefix + list(command), units


def flat(head, units):
    return head + [token for unit in units for token in unit]


def argparse_args(argv):
    """vars() of argparse's parse of argv, or None for a usage error or help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_well_formed_argv_covers_every_subcommand():
    assert set(ARGS) == {(g, *([s] if s else [])) for g, subs in GROUPS.items()
                         for s in subs or [None]}


@settings(max_examples=300, deadline=None)
@given(well_formed())
def test_table_parse_agrees_with_argparse(drawn):
    argv = flat(*drawn)
    table = cli.parse_table(argv)
    assert table is not None, argv
    assert vars(table) == argparse_args(argv)


NOISE = ["-x", "--", "-h", "--help", "--qm", "--qmax=5", "--k", "extra", "-", "--data-dir",
         "", "-1", "0", "4", "101", "a", "x", "Sp", "json", "jf", "gen"]


@settings(max_examples=300, deadline=None)
@given(well_formed(), st.data())
def test_table_parse_defers_or_agrees(drawn, data):
    # a well-formed argv with options dropped, values replaced or tokens
    # inserted: where the table parse answers at all, argparse parses the
    # argv to the same result
    head, units = drawn[0], list(drawn[1])
    for _ in range(data.draw(st.integers(1, 2))):
        at = data.draw(st.integers(0, len(units)))
        edit = data.draw(st.sampled_from(["drop", "replace", "insert"]))
        token = data.draw(st.sampled_from(NOISE))
        if edit == "insert" or at == len(units):
            units.insert(at, [token])
        elif edit == "drop":
            del units[at]
        else:
            units[at] = units[at][:-1] + [token]
    argv = flat(head, units)
    table = cli.parse_table(argv)
    if table is not None:
        assert vars(table) == argparse_args(argv), argv


DEFERRED = [case["argv"] for case in _golden()["cases"]
            if case["out"].startswith("usage:") or case["err"].startswith("usage:")]
DEFERRED += [["jf", "gen", "a", "--qm", "5"], ["jf", "gen", "a", "--qmax=5"],
             ["jf", "gen", "--", "a"], ["genus", "euler", "--chern", "-x"],
             ["jf", "gen", "a", "extra"]]


@pytest.mark.parametrize("argv", DEFERRED, ids=lambda argv: " ".join(argv) or "-")
def test_table_parse_defers_help_and_usage_errors(argv):
    assert cli.parse_table(argv) is None


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = [capture(argv, pathlib.Path(tmp)) for argv in CASES]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"python": list(sys.version_info[:2]), "cases": cases},
                                 indent=1) + "\n", encoding="utf-8")
