"""Unit 0 of every benchmark workload at smoke size and at full size,
in-process: a removed parameter or a changed output breaks here, not only in
a benchmark run."""

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


# sha256 of each workload's unit-0 outputs at full size, seed 1: the digests
# a benchmark run reports. Only full size trains a map on padded rows (50x80).
FULL_DIGESTS = {
    "churn_suite": "ba7f9efcd0a430d5de57c8f953897ea33bd461b65be41d8bd015d6b65b59dc47",
    "group_n200": "5b36d6694e49ba1cc63ce5db72793f1c0a31925972698197dee6feadb45ddf06",
    "radio_200": "360356befab3053c513b425b6eedc7ca43346945d1d25064173a9e750ab8c8aa",
    "detector_50x80": "76a90865de2814939c081d0233080d46fa467084aea561274bc7b2f61d6f10b2",
}


@pytest.mark.parametrize("name, smoke, digest", [
    *(pytest.param(name, True, d, id=name) for name, d in SMOKE_DIGESTS.items()),
    *(pytest.param(name, False, d, id=f"{name}-full") for name, d in FULL_DIGESTS.items()),
])
def test_unit_zero_passes_its_gates_with_the_pinned_digest(name, smoke, digest, tmp_path):
    workload = load_workloads().WORKLOADS[name](1, smoke, tmp_path / name)
    workload.prepare(0)
    result = workload.run(0)
    assert result.gates == []
    assert result.digest == digest
