"""The narrated demos run cleanly and the docstring examples hold."""

import doctest
import os
import pathlib
import subprocess
import sys

import pytest

from genera import jacobi, modular, series

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


@pytest.mark.parametrize("module", [series, modular, jacobi], ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted and result.failed == 0
