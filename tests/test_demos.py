"""Smoke test: every script in demos/ runs to completion.

The demos are the usage readers copy (``demos/cauchy_identities.py``
passes an ``eval_explicit`` lambda to the 2D oracle), so each one runs in
a fresh interpreter with the package on the path and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskpoly

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    src = Path(diskpoly.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
