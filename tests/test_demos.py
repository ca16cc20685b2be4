"""Smoke test: every numbered demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import manetsec

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    src = str(Path(manetsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
