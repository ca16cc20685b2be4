"""Smoke-size self-test of the benchmark (about a minute):

    python3 -m pytest benchmarks/test_selftest.py

Every workload runs with tiny inputs. The test checks the result line against
BENCHMARK.json, that the correctness gates pass, that one seed gives one
digest and another seed another, that the traced run reproduces the untraced
digest, and that the command refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    report = json.loads(next(line for line in lines if line.startswith("REPORT "))[7:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result, report


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    result, report = parse(bench(workload, 1, 0))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert 0 <= report["reported"]["failed_frac"] <= 1

    _, again = parse(bench(workload, 1, 0))
    assert again["digest"] == report["digest"]
    _, other = parse(bench(workload, 2, 0))
    assert other["digest"] != report["digest"]

    traced, traced_report = parse(bench(workload, 1, 1))
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced_report["digest"] == report["digest"]
    assert traced["metrics"]["trace.spans"]["value"] > 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("churn_suite", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
