"""Command-line harness: scenario runs, the security-goal suite, and the
detector's train/classify/evaluate file pipeline.

Exit codes: 0 success, 1 configuration or input error, 2 property-suite
failure. `main` turns every input error (unreadable or non-UTF-8 file, bad
scenario, malformed dataset or model) into `error: <message>` and exit 1; any other
exception is a bug and keeps its traceback. Reproducibility is mandatory:
`simulate` and `train` refuse to run without a seed (flag or config file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import esom
from .adversary import run_security_suite
from .sim import ScenarioError, parse_scenario, run_scenario

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SUITE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manetsec",
        description="group key agreement, eSOM detection and response for simulated ad hoc networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write metrics + event trace")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("attack-suite", help="run the security-goal property suite")
    p.add_argument("--config", required=True,
                   help="scenario config file; the suite reads only its seed")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--out", default=None, help="optional directory for the verdict table")
    p.add_argument("--cycles", type=int, default=1000,
                   help="leave/join cycles, two epochs each (default 1000)")
    p.add_argument("--replay-trials", type=int, default=100)
    p.add_argument("--weaken-nonce-check", action="store_true",
                   help="TEST ONLY: disable replay defenses to prove the suite catches it")

    p = sub.add_parser("train", help="train a detector model from a labeled CSV")
    p.add_argument("--data", required=True, help="CSV with 7 feature columns + label")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rows", type=int, default=esom.SomConfig.rows)
    p.add_argument("--cols", type=int, default=esom.SomConfig.cols)
    p.add_argument("--epochs", type=int, default=esom.SomConfig.epochs)
    p.add_argument("--hill-quantile", type=float, default=esom.SomConfig.hill_quantile)

    p = sub.add_parser("classify", help="classify a CSV against a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="CSV with 7 feature columns + label")
    p.add_argument("--out", required=True, help="verdict CSV")

    p = sub.add_parser("evaluate", help="score a verdict CSV against ground truth")
    p.add_argument("--verdicts", required=True)
    p.add_argument("--truth", required=True, help="labeled CSV the verdicts were made on")
    p.add_argument("--out", default=None, help="optional metrics CSV")
    p.add_argument("--unclassified", choices=("exclude", "as_normal", "as_attack"),
                   default="exclude")
    return parser


def _config_and_seed(args):
    """The scenario file and the run seed; the --seed flag wins over the file."""
    config = parse_scenario(args.config)
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise ScenarioError(f"{args.command} needs --seed or a seed in the config")
    return config, seed


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def cmd_simulate(args) -> int:
    config, seed = _config_and_seed(args)
    report = run_scenario(config, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(report.to_csv())
    (out / "events.log").write_text(report.trace_text())
    print(f"wrote {out / 'metrics.csv'} ({len(report.rows)} rows) and {out / 'events.log'}")
    return EXIT_OK


def cmd_attack_suite(args) -> int:
    for flag, count in (("--cycles", args.cycles), ("--replay-trials", args.replay_trials)):
        if count < 1:
            # a suite that ran no trials would certify every goal
            return _input_error(f"attack-suite needs {flag} of at least 1, got {count}")
    _, seed = _config_and_seed(args)
    report = run_security_suite(seed, cycles=args.cycles,
                                replay_trials=args.replay_trials,
                                weaken_nonce_check=args.weaken_nonce_check)
    detail = {
        "key_secrecy": f"cleartext secret hits: {report.transcript_hits}",
        "replay_resistance": f"state changes: {report.replay_failures}/{report.replay_trials}",
        "forward_secrecy": f"leaver breaks: {report.leaver_breaks}/{report.leaver_trials}",
        "backward_secrecy": f"joiner breaks: {report.joiner_breaks}/{report.joiner_trials}",
    }
    lines = [f"epochs                {report.epochs}",
             f"transcript bytes      {report.transcript_bytes}", ""]
    lines += [f"{goal.replace('_', ' '):22s}{'PASS' if ok else 'FAIL'}  ({detail[goal]})"
              for goal, ok in report.verdicts().items()]
    table = "\n".join(lines) + "\n"
    print(table, end="")
    print(f"elapsed seconds       {report.elapsed:.1f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # the written table carries no timing, so reruns are byte-identical
        (out / "attack_suite.txt").write_text(table)
    return EXIT_OK if report.all_passed() else EXIT_SUITE


def cmd_train(args) -> int:
    if args.seed is None or args.seed < 0:
        return _input_error("train needs a non-negative --seed (reproducibility is mandatory)")
    data, labels = esom.read_dataset_csv(args.data)
    if len(data) < 2:
        return _input_error(f"{args.data}: training needs at least two samples")
    config = esom.SomConfig(rows=args.rows, cols=args.cols, epochs=args.epochs,
                            hill_quantile=args.hill_quantile)
    try:
        config.validate()
    except ValueError as e:
        return _input_error(str(e))
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x50D]))
    model = esom.fit_detector(data, labels, config, rng)
    esom.save_model(args.model, model)
    print(f"wrote {args.model} ({config.rows}x{config.cols}, {len(data)} samples)")
    return EXIT_OK


def cmd_classify(args) -> int:
    model = esom.load_model(args.model)
    data, _ = esom.read_dataset_csv(args.data)
    normalized = esom.apply_normalization(model.stats, data)
    results = esom.classify_batch(model.grid, model.labeling, normalized)
    esom.write_verdicts_csv(args.out, results)
    print(f"wrote {args.out} ({len(results)} verdicts)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    verdicts = esom.read_verdicts_csv(args.verdicts)
    _, labels = esom.read_dataset_csv(args.truth)
    if len(verdicts) != len(labels):
        return _input_error(f"{len(verdicts)} verdicts vs {len(labels)} truth rows")
    truth = [esom.VERDICT_OF[l] for l in labels]
    report = esom.evaluate(verdicts, truth, unclassified=args.unclassified)
    det = "" if report.detection_rate is None else f"{report.detection_rate:.6g}"
    fa = "" if report.false_alarm_rate is None else f"{report.false_alarm_rate:.6g}"
    text = ("detection_rate,false_alarm_rate,unclassified_fraction\n"
            f"{det},{fa},{report.unclassified_fraction:.6g}\n")
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": cmd_simulate,
        "attack-suite": cmd_attack_suite,
        "train": cmd_train,
        "classify": cmd_classify,
        "evaluate": cmd_evaluate,
    }[args.command]
    try:
        return handler(args)
    except (OSError, UnicodeDecodeError, ScenarioError, esom.DatasetError) as e:
        # input errors only: anything else is a bug and keeps its traceback
        return _input_error(str(e))


if __name__ == "__main__":
    sys.exit(main())
