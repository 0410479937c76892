"""Smoke test: each demo script runs to completion from a fresh interpreter.

Demos 01-04 take well under a second each; 04 goes through every likelihood
detector.  Demo 05 is left out: it writes ``sweep.csv`` and ``ranking.csv``
next to itself and runs a Monte Carlo study of about 12 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0[1-4]_*.py"))


def test_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert res.returncode == 0, res.stderr
