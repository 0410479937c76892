"""Each demo script runs to completion from a fresh interpreter.

Demos 01-04 take well under a second each; 04 goes through every likelihood
detector.  Their stdout must equal ``tests/data/demo_<name>.txt``.  Demo 05,
a Monte Carlo study of about 2-3 s, is the only one that runs the
deterministic sweep, the placement ranking and ``sigma_mode="model"``; it
prints absolute paths, so it is only run.  It writes ``sweep.csv`` and
``ranking.csv`` next to itself, so every demo runs from a copy in a
temporary directory.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
DEMOS = sorted((REPO / "demos").glob("0[1-5]_*.py"))


def test_five_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    res = subprocess.run(
        [sys.executable, str(copy)], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
    if script.name[:2] != "05":
        assert res.stdout == (DATA / f"demo_{script.stem}.txt").read_text()
