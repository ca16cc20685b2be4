"""One benchmark workload in a fresh process.

Started by run.py; not meant to be run by hand. It imports manetsec from the
checkout's src/, prepares the workload's first unit, prints
`READY <CLOCK_MONOTONIC seconds>` so the parent can time set-up from process
start, then `SCALE <factor>` from `workloads.HostSpeed` so the parent can
scale that time to the reference host speed, then either runs the closed loop for the given seconds (--trace 0) or
runs unit 0 once untraced and once traced (--trace 1). The last stdout line is
one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import cryptography
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    sha = "none (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
    }


def run_timed(wl, seconds: float) -> list:
    """Closed loop: unit after unit until the next one would overrun."""
    results, costs = [], []
    start = time.perf_counter()
    unit = 0
    while True:
        t0 = time.perf_counter()
        if unit > 0:
            wl.prepare(unit)
        results.append(wl.run(unit))
        costs.append(time.perf_counter() - t0)
        unit += 1
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            return results


def run_traced(wl, tracing) -> tuple[list, dict]:
    """Unit 0 untraced, then unit 0 again with every entry point wrapped."""
    t0 = time.perf_counter()
    plain = wl.run(0)
    untraced = time.perf_counter() - t0
    wl.prepare(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = wl.run(0)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    layers.update({"trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced_wall,
                   "trace.overhead_ratio": traced_wall / untraced})
    if traced.digest != plain.digest:
        traced.gates.append(f"traced digest {traced.digest[:12]} != untraced {plain.digest[:12]}")
    return [plain, traced], layers


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import manetsec

    if Path(manetsec.__file__).resolve().parent != (ROOT / "src" / "manetsec").resolve():
        print(f"error: imported manetsec from {manetsec.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        wl.prepare(0)
        print(f"READY {monotonic()!r}", flush=True)
        with workloads.HostSpeed() as speed:
            pass
        print(f"SCALE {speed.scale!r}", flush=True)
        if args.setup_only:
            return 0
        layers = None
        if args.trace:
            results, layers = run_traced(wl, tracing)
        else:
            results = run_timed(wl, args.seconds)
        out = {
            "units": len(results),
            "units_failed": sum(1 for r in results if r.gates),
            "gates": [g for r in results for g in r.gates],
            "digest": results[0].digest,
            "op_ms": statistics.median(x for r in results for x in r.op_ms),
            "op_ms_scaled": statistics.median(x for r in results for x in r.op_scaled_ms),
            "unit_ms": [sum(r.op_ms) for r in results],
            "unit_ms_scaled": [sum(r.op_scaled_ms) for r in results],
            "ops": sum(len(r.op_ms) for r in results),
            "ops_total": sum(r.ops_total for r in results),
            "ops_failed": sum(r.ops_failed for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "workload_metrics": wl.summarize(results[:1] if args.trace else results),
            "layers": layers,
            "layer_units": tracing.metric_units() if args.trace else None,
            "env": environment(),
        }
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
