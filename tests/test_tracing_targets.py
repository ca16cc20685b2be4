"""The benchmark's span tracer wraps names in the package by string; a rename
or a deleted function must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mod, attr", [(mod, attr) for mod, attr, _ in load_tracing().TARGETS])
def test_target_resolves(mod, attr):
    module = importlib.import_module(f"manetsec.{mod}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # install() reads the class's own __dict__, so an inherited method fails
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
