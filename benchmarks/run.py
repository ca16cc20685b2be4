"""manetsec benchmark: four seeded closed-loop workloads, end to end or traced.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload group_n200 --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 1

Each workload runs in a fresh process (benchmarks/worker.py) with library
thread pools capped at the machine's CPU count. --trace 0 reports the
end-to-end metrics; --trace 1 runs the workload's reference unit untraced and
then traced, and reports per-layer counts and self times. The command prints
a table of every metric with its unit, one `REPORT {...}` line with the full
record (environment, digest, all metrics), and as its last line the JSON
result. It exits 1 when a correctness gate fails and 2 when the program is
missing or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("churn_suite", "group_n200", "radio_200", "detector_50x80")
SETUP_SPAWNS = 9     # processes timed for setup_s; the last one runs the workload
DEADLINE_S = 170.0   # one workload, every spawn included

# the workload-level metrics the report prints, with unit and better-direction
REPORTED = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "suite_epochs_per_s": ("epochs/s", "higher"),
    "rekey_ms.p50": ("ms", "lower"),
    "rekey_ms.p90": ("ms", "lower"),
    "churn_ms.p50": ("ms", "lower"),
    "churn_ms.p90": ("ms", "lower"),
    "wire_bytes_per_epoch": ("bytes", "lower"),
    "sim_s_per_wall_s": ("sim_s/s", "higher"),
    "fit_samples_per_s": ("samples/s", "higher"),
    "classify_samples_per_s": ("samples/s", "higher"),
    "detection_rate": ("ratio", "higher"),
    "false_alarm_rate": ("ratio", "lower"),
    "unclassified_fraction": ("ratio", "lower"),
}


class WorkerError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, float, str]:
    """Run one worker; return its set-up time, the factor that scales it to
    the reference host speed, and the worker's stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} overran the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    marks = dict(line.split(maxsplit=1) for line in out.splitlines()
                 if line.startswith(("READY ", "SCALE ")))
    if len(marks) != 2:
        raise WorkerError(f"worker {' '.join(args)} never became ready")
    return float(marks["READY"]) - t0, float(marks["SCALE"]), out


def end_to_end() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of the end-to-end metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool,
                 deadline: float) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    spawns = []
    if not trace:
        for _ in range(SETUP_SPAWNS - 1):
            spawns.append(spawn(args + ["--setup-only"], deadline))
    spawns.append(spawn(args, deadline))
    raw = json.loads(spawns[-1][2].splitlines()[-1])
    setups = [setup for setup, _, _ in spawns]
    reported = {
        "setup_s": statistics.median(setup * scale for setup, scale, _ in spawns),
        "setup_wall_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_frac": raw["ops_failed"] / raw["ops_total"],
        **raw["workload_metrics"],
    }
    if trace:
        metrics = raw["layers"]
    else:
        metrics = {k: reported.get(k, raw.get(k)) for k in end_to_end()}
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "setup_samples_s": setups, "reported": reported,
            "metrics": metrics, **{k: raw[k] for k in (
                "units", "units_failed", "gates", "digest", "ops", "op_ms", "op_ms_scaled",
                "unit_ms", "unit_ms_scaled",
                "ops_total", "ops_failed", "layer_units", "env")}}


def print_report(rec: dict, units: dict[str, str]) -> None:
    mode = "traced unit 0" if rec["trace"] else f"{rec['seconds']} s closed loop"
    print(f"== {rec['workload']}  seed {rec['seed']}  {mode}  "
          f"units {rec['units']}  ops {rec['ops']}")
    env = rec["env"]
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':<30} {'value':>14}  unit")
    for k, (unit, better) in REPORTED.items():
        v = rec["reported"].get(k)
        shown = "-" if v is None else f"{v:.6g}"
        print(f"{k:<30} {shown:>14}  {unit:<10} {better}")
    print(f"{'ops_failed/ops_total':<30} {rec['ops_failed']:>7}/{rec['ops_total']:<6}")
    if rec["trace"]:
        print(f"{'per-layer metric':<60} {'value':>14}  unit")
        for k, unit in units.items():
            print(f"{k:<60} {rec['metrics'][k]:>14.6g}  {unit}")
    else:
        for k, (unit, better) in end_to_end().items():
            print(f"{'e2e ' + k:<30} {rec['metrics'][k]:>14.6g}  {unit:<10} {better}")
        print(f"{'setup_s (wall, unscaled)':<30} {rec['reported']['setup_wall_s']:>14.6g}  s")
        print(f"{'op_ms (wall, unscaled)':<30} {rec['op_ms']:>14.6g}  ms")
    print(f"digest  sha256:{rec['digest']}")
    for g in rec["gates"]:
        print(f"GATE FAILED  {g}")


def main() -> int:
    p = argparse.ArgumentParser(description="manetsec benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args()

    if not (ROOT / "src" / "manetsec" / "__init__.py").is_file():
        print(f"error: no manetsec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        args.smoke, monotonic() + DEADLINE_S))
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.trace:
        units = records[0]["layer_units"]
    else:
        units = {k: u for k, (u, _) in end_to_end().items()}
    for rec in records:
        print_report(rec, units)
        print("REPORT " + json.dumps(rec))
    if len(records) == 1:
        metrics = {k: {"value": records[0]["metrics"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": r["metrics"][k], "unit": u}
                   for r in records for k, u in units.items()}
    correct = all(not r["gates"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["units"] for r in records),
                      "failed": sum(r["units_failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
