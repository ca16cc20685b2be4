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
        "a3ce4967942f903b1d1242d0ffeb6cc8d04d7fc73986542ec513114eb3385277",
    ("scenario_dropper_sweep", "events.log"):
        "7ff7710a0a1795f073e0f477f8101e9e46665ceb0f38ce517de24a7544b9c052",
    ("scenario_dropper_sweep", "metrics.csv"):
        "e5fade9464484aba1afa3240594c2628cdea98c3b8c62f740c8264f5abdcb76b",
    ("scenario_pause_sweep", "events.log"):
        "92847c1dae885c540a04f8e33343d175bb3f22e97f021593e017e2e864e1a064",
    ("scenario_pause_sweep", "metrics.csv"):
        "418a5da1b7ab9ddb26a67113b7d247f6ed70be3ebbbbd32ff255fc9173e63172",
    ("attack-suite --seed 77", "attack_suite.txt"):
        "5b87791aac0f068ca6e1ccb299aa353817497060d49f89df233814fd9ea6292c",
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
