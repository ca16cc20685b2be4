"""The package runs on numpy and cryptography alone: scipy and hypothesis are
test tools, and importing every module must not pull either in."""

import os
import subprocess
import sys
from pathlib import Path

import manetsec

TEST_ONLY = ("scipy", "hypothesis")

PROBE = """
import importlib, pkgutil, sys
import manetsec
names = [m.name for m in pkgutil.iter_modules(manetsec.__path__, "manetsec.")
         if m.name != "manetsec.__main__"]  # runs the CLI; imports only cli
for name in names:
    importlib.import_module(name)
print(len(names))
print(" ".join(sorted({m.split(".")[0] for m in sys.modules})))
"""


def test_no_test_tool_is_imported_at_runtime(tmp_path):
    src = str(Path(manetsec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    count, loaded = done.stdout.splitlines()
    assert int(count) >= 9
    assert "manetsec" in loaded.split()
    assert not set(TEST_ONLY) & set(loaded.split())
