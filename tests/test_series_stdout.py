"""The stdout of the series commands, pinned by sha256.

`jf gen` prints every generator (at qmax 0, 3, 8, 20 and 40, and phi02 and
phi04 also at 13, 16 and 19) and `genus compute` prints the genus of the
bundled Chern data, and of a dimc-3 file whose genus is not integral, as long
JSON series. `jf check` reads three small form files under tests/data: one
that obeys the law (exit 0), one with a violation (exit 1) and one whose
support breaks the index parity (exit 2, empty stdout). `selftest` exits 1
because of criterion 7. The table requests pin infinite orders ("inf" from
`cells order` of the unit of pi_tmf, the k = 1 rows of `cells dsu-easy` and
`divis verify-clas`, and a cofiber group with a Z summand), an element order
in pi_S, and cofiber groups that are resolved, unresolved extensions, or
outside the table's window (exit 2, empty stdout). The default-json forms of
the table commands, `divis verdict` for each structure (exit 0 and 1) and the
large outputs of `jf gen phi04 --qmax 100` and `genus compute` at nvars 3 pin
what the JSON writer prints. A few of the pinned requests also run as the
program, `python -m genera.cli`, in a fresh process.
tests/data/series_stdout_sha256.json holds the exit code and the sha256 of
stdout for each request. To pin newly added cases, run

    PYTHONPATH=src python tests/test_series_stdout.py

It only adds the cases missing from the file. If any existing pin differs
from the current output, it names those cases, writes nothing and exits 1;
to accept a deliberate output change, delete that entry by hand first.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from genera import cli
from genera.jacobi import GRADINGS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "data" / "series_stdout_sha256.json"

# paths are relative to the repository root, where every request runs
CASES = (
    [["jf", "gen", name, "--qmax", str(q)] for name in GRADINGS for q in (0, 3, 8, 20)]
    + [["jf", "gen", name, "--qmax", str(q)] for name in ("phi02", "phi04") for q in (13, 16, 19)]
    + [["jf", "gen", name, "--qmax", "40"] for name in GRADINGS]
    + [["genus", "compute", "--chern", chern, "--nvars", str(n), "--qmax", "4"]
       for chern in ("k3", "quintic") for n in (1, 2, 3)]
    + [["genus", "compute", "--chern", "tests/data/chern_dimc3_nonintegral.json",
        "--nvars", "1", "--qmax", "4"]]
    + [["jf", "check", f"tests/data/form_phi01_q1{kind}.json", "--lambda", lam]
       for kind in ("", "_violation", "_parity") for lam in ("1", "-1")]
    + [["selftest"]]
    + [["cells", "order", "--table", "pi_tmf", "--element", "one"],
       ["cells", "dsu-easy", "--kmax", "60", "--format", "md"],
       ["divis", "verify-clas", "--kmax", "30", "--format", "csv"],
       ["cells", "homotopy", "--complex", "tmf_mod_nu", "--table", "pi_tmf", "--deg", "5"],
       ["cells", "order", "--table", "pi_S", "--element", "eta,8*nu"]]
    + [["cells", "homotopy", "--complex", cplx, "--table", table, "--deg", deg]
       for cplx, table, deg in (("tmf_mod_nu", "pi_S", "7"), ("tmf_mod_eta", "pi_tmf", "8"),
                                ("tmf_mod_eta", "pi_S", "5"), ("tmf_mod_nu", "pi_S", "8"))]
    + [["divis", "table", "--kmax", "16"],
       ["divis", "verify-clas", "--kmax", "12"],
       ["cells", "dsu-easy", "--kmax", "12"]]
    + [["divis", "verdict", "--structure", structure, "--k", k, "--euler", euler]
       for structure, k, euler in (("SU", "1", "0"), ("SU", "3", "7"), ("Sp", "2", "324"),
                                   ("Sp", "3", "25"), ("SO", "4", "6"), ("SO", "6", "3"))]
    + [["jf", "gen", "phi04", "--qmax", "100"],
       ["genus", "compute", "--chern", "k3", "--nvars", "3", "--qmax", "6"]]
)

# pinned requests that also run as `python -m genera.cli`, the path on which
# main freezes the start-up heap: a large output that must arrive whole, exit
# codes 1 and 2 (a WindowError, with empty stdout) and one of each group
PROGRAM_CASES = [
    ["jf", "gen", "phi04", "--qmax", "100"],
    ["selftest"],
    ["cells", "homotopy", "--complex", "tmf_mod_nu", "--table", "pi_S", "--deg", "8"],
    ["jf", "check", "tests/data/form_phi01_q1_violation.json", "--lambda", "1"],
    ["genus", "compute", "--chern", "quintic", "--nvars", "2", "--qmax", "4"],
    ["divis", "verdict", "--structure", "Sp", "--k", "3", "--euler", "25"],
]


def capture(argv) -> dict:
    """Exit code and sha256 of stdout of cli.main(argv), run in the repository root."""
    saved = os.getcwd()
    out = io.StringIO()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(argv))
    finally:
        os.chdir(saved)
    return {"rc": rc, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_pin_file_covers_every_case():
    assert sorted(_pins()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_is_pinned(argv):
    assert capture(argv) == _pins()[" ".join(argv)]


@pytest.mark.parametrize("argv", PROGRAM_CASES, ids=" ".join)
def test_program_stdout_is_pinned(argv):
    # with stdout block-buffered, as by default, so that it is whole only if flushed at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "genera.cli", *argv], capture_output=True,
                          cwd=ROOT, env=env, timeout=120)
    got = {"rc": proc.returncode, "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    assert got == _pins()[" ".join(argv)]
    if got["rc"] == 2:
        assert proc.stderr.startswith(b"error: ") and proc.stderr.endswith(b"\n")
    else:
        assert proc.stderr == b""


if __name__ == "__main__":
    pins = _pins()
    current = {" ".join(argv): capture(argv) for argv in CASES}
    changed = [key for key, pin in pins.items() if key in current and current[key] != pin]
    if changed:
        sys.exit("pinned output changed; delete these entries by hand to re-pin them:\n  "
                 + "\n  ".join(changed))
    pins.update((key, got) for key, got in current.items() if key not in pins)
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
