"""Smoke test: every numbered demo script runs to completion."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import manetsec
from manetsec import cli

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    src = str(Path(manetsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# sha256 of each demo output: every refactor must keep these bytes, and a
# behaviour change re-pins them here and records why
DEMO_OUTPUTS_SHA256 = {
    ("scenario_basic", "events.log"):
        "34829cd61a835d7429d0c4f3c27f0d3ce7f55db1951d2af5c6e4eaf7af486a40",
    ("scenario_basic", "metrics.csv"):
        "f190de25d51a8e71fc03111f6659178c67bccf6c5e058df89a90a4d09b0b69ca",
    ("scenario_dropper_sweep", "events.log"):
        "f79523db232c5f91a5f36b722c24921fca0a9a1630b1c1b07258668125e5d786",
    ("scenario_dropper_sweep", "metrics.csv"):
        "a4dacd26535a4c4a247ba0f2c425f2eee780ce4da1c099648119841744b2025b",
    ("scenario_pause_sweep", "events.log"):
        "6efc5e1a83e4240370b5252055c6fc4083657c3cd6df6b619c9cad7119c19110",
    ("scenario_pause_sweep", "metrics.csv"):
        "3da91488773e3e6bd9fd9d0a1a835f16ab587005564fd32ea67376e724d589e9",
    ("attack-suite --seed 77", "attack_suite.txt"):
        "3c2a58825a7773783eb0715aa630f57e456e2c0ee0235a2bcb654e5592cbe29f",
}


def test_demo_outputs_are_pinned(tmp_path):
    """`simulate` on the three demo configs and `attack-suite` at seed 77,
    run in-process, write the pinned bytes."""
    configs = Path(__file__).resolve().parents[1] / "demos"
    got = {}
    for run, name in DEMO_OUTPUTS_SHA256:
        out = tmp_path / run.replace(" ", "_")
        if not out.exists():
            args = (["attack-suite", "--config", str(configs / "scenario_basic.cfg"),
                     "--seed", "77"] if run.startswith("attack-suite")
                    else ["simulate", "--config", str(configs / f"{run}.cfg")])
            assert cli.main([*args, "--out", str(out)]) == 0
        got[run, name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert got == DEMO_OUTPUTS_SHA256
