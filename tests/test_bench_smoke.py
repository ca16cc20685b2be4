"""Unit 0 of every benchmark workload at smoke size, in-process: a removed
parameter or a changed output breaks here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# sha256 of each workload's unit-0 outputs at smoke size, seed 1
SMOKE_DIGESTS = {
    "churn_suite": "38751412d98001c7078d18c313574a68af8c17648f856c25f02b425c43e756f1",
    "group_n200": "dd98cbfcdd83a4812c54a14a0a4115caabd94494b940489f31c462da6b1256e7",
    "radio_200": "dd9f21429d15a1d150074837b2e2f030c096b857364792452170d1f98a606b97",
    "detector_50x80": "91da9ab91a4d996cc331fe3e7b015c399933ef0dbb1178c5ed65d6ac13d97f8b",
}


@pytest.mark.parametrize("name", list(SMOKE_DIGESTS))
def test_unit_zero_passes_its_gates_with_the_pinned_digest(name, tmp_path):
    workload = load_workloads().WORKLOADS[name](1, True, tmp_path / name)
    workload.prepare(0)
    result = workload.run(0)
    assert result.gates == []
    assert result.digest == SMOKE_DIGESTS[name]
