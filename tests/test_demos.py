"""The narrated demos run cleanly and the docstring examples hold."""

import doctest
import os
import pathlib
import subprocess
import sys

import pytest

from genera import _intlin, cells, genus, hodge, jacobi, modular, series

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_demo(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


GENERATORS_DEMO_STDOUT = (
    "generator  (weight2, index2)  q^0 layer\n"
    "a          ( -2, 1)         [(-1, '-1'), (1, '1')]\n"
    "phi01      (  0, 2)         [(-2, '1'), (0, '10'), (2, '1')]\n"
    "phi032     (  0, 3)         [(-1, '1'), (1, '1')]\n"
    "phi02      (  0, 4)         [(-2, '1'), (0, '4'), (2, '1')]\n"
    "phi04      (  0, 8)         [(-2, '1'), (0, '1'), (2, '1')]\n"
    "\n"
    "ev (value at y = 1); the odd generator collapses to 0\n"
    "  ev(a) = 0\n"
    "  ev(phi01) = 12\n"
    "  ev(phi032) = 2\n"
    "  ev(phi02) = 6\n"
    "  ev(phi04) = 3\n"
    "\n"
    "4*phi04 == phi01*phi032^2 - phi02^2 through q^4: True\n"
    "\n"
    "law for a       at lambda=1: ok=True (43 pairs)\n"
    "law for phi01   at lambda=1: ok=True (55 pairs)\n"
    "law for phi032  at lambda=1: ok=True (42 pairs)\n"
    "law for phi02   at lambda=1: ok=True (66 pairs)\n"
    "law for phi04   at lambda=1: ok=True (54 pairs)\n"
)


def test_generators_demo_stdout_is_pinned():
    proc = _run_demo(ROOT / "demos" / "01_generators.py")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, GENERATORS_DEMO_STDOUT, "")


GENUS_DEMO_STDOUT = (
    "k3: dimc=2, Euler=24\n"
    "quintic: dimc=3, Euler=-200\n"
    "\n"
    "genus(K3) carries (weight2, index2) = (0, 2)\n"
    "genus(K3) == 2*phi01: True\n"
    "genus(quintic) == -100*phi032: True\n"
    "ev(genus(K3)) = 24\n"
    "\n"
    "K3 x K3 Chern numbers: {(4,): 576, (3, 1): 0, (2, 2): 1152, (2, 1, 1): 0, (1, 1, 1, 1): 0}\n"
    "genus(K3 x K3) == genus(K3)^2 through q^3: True\n"
    "\n"
    "diag(genus_2(K3)) == 4*a^2*phi01: True\n"
    "genus(K3) even in y: True\n"
)


def test_genus_demo_stdout_is_pinned():
    proc = _run_demo(ROOT / "demos" / "02_k3_genus.py")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, GENUS_DEMO_STDOUT, "")


HODGE_DEMO_STDOUT = (
    "k = 2: unknowns h11, h12, h22, Euler\n"
    "  0 = Euler - 12*h11 + 6*h12 - 72\n"
    "  0 = 2*Euler + 6*h12 - 3*h22 + 48\n"
    "  0 = Euler - 4*h11 + 4*h12 - h22 - 8\n"
    "  eliminating Euler:  0 = 8*h11 - 2*h12 - h22 + 64\n"
    "  Euler divisor: 12 (with parity), 6 (equations alone)\n"
    "\n"
    "k = 3: unknowns h11, h12, h13, h22, h23, h33, Euler, A\n"
    "  0 = A - 2*h11 + 2*h12 - h13 + 120\n"
    "  0 = 16*A - Euler - 8*h12 + 8*h22 - 4*h23 + 2072\n"
    "  0 = 12*A + Euler - 4*h13 + 4*h23 - 2*h33 + 1568\n"
    "  0 = Euler - 4*h11 + 8*h12 - 4*h13 - 4*h22 + 4*h23 - h33 - 12\n"
    "  eliminating A from the middle pair:  0 = 7*Euler + 24*h12 - 16*h13 - 24*h22 + 28*h23 - 8*h33 + 56\n"
    "  Euler divisor: 8 (with parity), 4 (equations alone)\n"
    "\n"
    "witness h11=21 h12=0 h22=232 Euler=324 accepted: True\n"
    "perturbing h22 by one rejected: True\n"
    "\n"
    "family points (h11, h12) -> Euler:\n"
    "  (21, 0) -> Euler =  324  admissible=True  12|Euler=True\n"
    "  ( 5, 2) -> Euler =  120  admissible=True  12|Euler=True\n"
    "  ( 0, 0) -> Euler =   72  admissible=True  12|Euler=True\n"
    "  ( 3, 1) -> Euler =  102  admissible=False  12|Euler=False\n"
)


def test_hodge_demo_stdout_is_pinned():
    proc = _run_demo(ROOT / "demos" / "05_hodge.py")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, HODGE_DEMO_STDOUT, "")


MODULAR_DEMO_STDOUT = (
    "E4    (weight2= 8): ['1', '240', '2160', '6720', '17520', '30240', '60480']\n"
    "E6    (weight2=12): ['1', '-504', '-16632', '-122976', '-532728', '-1575504', '-4058208']\n"
    "delta (weight2=24): ['0', '1', '-24', '252', '-1472', '4830', '-6048']\n"
    "\n"
    "1728*delta == E4^3 - E6^2: True\n"
)


def test_modular_demo_stdout_is_pinned():
    proc = _run_demo(ROOT / "demos" / "06_modular.py")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, MODULAR_DEMO_STDOUT, "")


@pytest.mark.parametrize("module", [series, modular, jacobi, genus, hodge, cells, _intlin],
                         ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted and result.failed == 0
