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
    "churn_suite": "79156be5d6214513fab2ac2a0c4affdea011138be53a42568b82b175163ae1cb",
    "group_n200": "dd98cbfcdd83a4812c54a14a0a4115caabd94494b940489f31c462da6b1256e7",
    "radio_200": "821056a8ff8a05b1c899c5de8e68be095fb7e37cc266402f7a02bb72b72fe7df",
    "detector_50x80": "91da9ab91a4d996cc331fe3e7b015c399933ef0dbb1178c5ed65d6ac13d97f8b",
}


# sha256 of each workload's unit-0 outputs at full size, seed 1: the digests
# a benchmark run reports. Only full size trains a map on padded rows (50x80).
FULL_DIGESTS = {
    "churn_suite": "e9c2f65a3a531f77be83cd99e4c18f3a7d35a20b1d790471fa57355f0d9f4f6e",
    "group_n200": "9b3d411653ce9fc862581fa09c2e7db3cad1b28a3dd2b25fd40eb9fb78a930c4",
    "radio_200": "66ede558b3e410411c28614e6d39a888de958ad9ad247e562ee50ebbc4dfb1a2",
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
