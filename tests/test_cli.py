import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import manetsec
from manetsec import cli, esom
from manetsec.cli import main

SCENARIO = """\
node_count = 16
area_width = 600
area_height = 400
range = 250
duration = 40
root = 0
seed = 21
generators = 6
destinations = 3
attack_start = 10
attack_end = 40
droppers = 3,7
eavesdroppers = 5
som_rows = 8
som_cols = 10
som_epochs = 6
coverage_window = 10
global_rekey_at = 25
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO)
    return path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_dataset(path, n_per, sep, seed):
    rng = np.random.default_rng(seed)
    data = np.vstack([rng.normal(0, 1, (n_per, 7)), rng.normal(sep, 1, (n_per, 7))])
    labels = np.array([0] * n_per + [1] * n_per)
    order = rng.permutation(len(data))
    esom.write_dataset_csv(path, data[order], labels[order])


class TestSimulate:
    def test_writes_outputs_and_exit_zero(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(scenario_file), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "events.log").exists()

    def test_byte_identical_reruns(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(scenario_file), "--out", str(a)])
        main(["simulate", "--config", str(scenario_file), "--out", str(b)])
        assert file_hash(a / "metrics.csv") == file_hash(b / "metrics.csv")
        assert file_hash(a / "events.log") == file_hash(b / "events.log")

    def test_missing_config(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_config_error_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("node_count = 1\nseed = 2\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_seed_required(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("node_count = 8\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("line", ["som_rows = 1", "som_epochs = 0",
                                      "hill_quantile = 1.5"])
    def test_bad_som_key_is_input_error(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"node_count = 8\nseed = 1\n{line}\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_handler_looked_up_at_call_time(self, scenario_file, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda args: calls.append(args) or 0)
        assert main(["simulate", "--config", str(scenario_file), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_program_error_keeps_its_traceback(self, scenario_file, tmp_path, monkeypatch):
        def broken(config, seed):
            raise ValueError("a bug, not an input error")
        monkeypatch.setattr(cli, "run_scenario", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["simulate", "--config", str(scenario_file), "--out", str(tmp_path)])

    def test_seed_flag_overrides(self, scenario_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(scenario_file), "--out", str(a)])
        main(["simulate", "--config", str(scenario_file), "--seed", "99",
              "--out", str(b)])
        assert file_hash(a / "metrics.csv") != file_hash(b / "metrics.csv")


class TestAttackSuite:
    def test_all_goals_pass(self, scenario_file, capsys):
        code = main(["attack-suite", "--config", str(scenario_file),
                     "--cycles", "8", "--replay-trials", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_weakened_build_fails_with_exit_2(self, scenario_file, capsys):
        code = main(["attack-suite", "--config", str(scenario_file),
                     "--cycles", "3", "--replay-trials", "30",
                     "--weaken-nonce-check"])
        out = capsys.readouterr().out
        assert code == 2
        assert "replay resistance     FAIL" in out

    def test_seed_required(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("node_count = 8\n")
        assert main(["attack-suite", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: attack-suite needs --seed or a seed in the config\n"

    @pytest.mark.parametrize("flag", ["--cycles", "--replay-trials"])
    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_count_below_one_is_input_error(self, scenario_file, tmp_path, capsys,
                                            flag, count):
        # a suite that runs no trials must not print PASS for every goal
        out = tmp_path / "suite"
        argv = ["attack-suite", "--config", str(scenario_file), "--cycles", "3",
                "--replay-trials", "10", "--out", str(out)]
        argv[argv.index(flag) + 1] = count
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: attack-suite needs {flag} of at least 1, got {count}\n"
        assert "PASS" not in captured.out
        assert not out.exists()

    def test_verdicts_written(self, scenario_file, tmp_path):
        out = tmp_path / "suite"
        main(["attack-suite", "--config", str(scenario_file),
              "--cycles", "3", "--replay-trials", "10", "--out", str(out)])
        assert (out / "attack_suite.txt").exists()


class TestDetectorPipeline:
    def test_train_classify_evaluate(self, tmp_path, capsys):
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        write_dataset(train_csv, 300, 4.0, 1)
        write_dataset(test_csv, 100, 4.0, 2)
        model = tmp_path / "model.bin"
        assert main(["train", "--data", str(train_csv), "--model", str(model),
                     "--seed", "5", "--rows", "10", "--cols", "12",
                     "--epochs", "8"]) == 0
        verdicts = tmp_path / "verdicts.csv"
        assert main(["classify", "--model", str(model), "--data", str(test_csv),
                     "--out", str(verdicts)]) == 0
        metrics = tmp_path / "metrics.csv"
        assert main(["evaluate", "--verdicts", str(verdicts), "--truth", str(test_csv),
                     "--out", str(metrics)]) == 0
        header, values = metrics.read_text().strip().split("\n")
        assert header == "detection_rate,false_alarm_rate,unclassified_fraction"
        det = float(values.split(",")[0])
        assert det >= 0.9

    def test_train_deterministic_models(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_dataset(train_csv, 200, 3.0, 3)
        m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        for m in (m1, m2):
            main(["train", "--data", str(train_csv), "--model", str(m),
                  "--seed", "7", "--rows", "8", "--cols", "10", "--epochs", "6"])
        assert file_hash(m1) == file_hash(m2)

    def test_train_requires_seed(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        write_dataset(train_csv, 50, 2.0, 4)
        assert main(["train", "--data", str(train_csv),
                     "--model", str(tmp_path / "m.bin")]) == 1

    def test_negative_train_seed_is_input_error(self, tmp_path, capsys):
        train_csv = tmp_path / "train.csv"
        write_dataset(train_csv, 50, 2.0, 4)
        model = tmp_path / "m.bin"
        assert main(["train", "--data", str(train_csv), "--model", str(model),
                     "--seed", "-3"]) == 1
        assert capsys.readouterr().err == \
            "error: train needs a non-negative --seed (reproducibility is mandatory)\n"
        assert not model.exists()

    def test_train_defaults_are_the_som_defaults(self):
        args = cli.build_parser().parse_args(["train", "--data", "d.csv", "--model", "m.bin"])
        default = esom.SomConfig()
        assert (args.rows, args.cols, args.epochs, args.hill_quantile) == \
            (default.rows, default.cols, default.epochs, default.hill_quantile)

    def test_train_on_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["train", "--data", str(empty), "--model", str(tmp_path / "m.bin"),
                     "--seed", "1"]) == 1

    def test_train_on_one_sample(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("nav,tx_rate,rx_rate,rts_retx_rate,data_retx_rate,"
                       "active_neighbors,forwarding_nodes,label\n1,2,3,4,5,6,7,normal\n")
        assert main(["train", "--data", str(one), "--model", str(tmp_path / "m.bin"),
                     "--seed", "1"]) == 1
        assert "at least two samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_non_utf8_input_is_input_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"seed = 1\nnode_count = \xff\n")
        argv = (["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]
                if command == "simulate" else
                ["train", "--data", str(bad), "--model", str(tmp_path / "m.bin"), "--seed", "1"])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nav,tx_rate,rx_rate,rts_retx_rate,data_retx_rate,"
                       "active_neighbors,forwarding_nodes,label\n"
                       "1,2,3,4,5,6,7,nonsense\n")
        assert main(["train", "--data", str(bad), "--model", str(tmp_path / "m.bin"),
                     "--seed", "1"]) == 1
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text("nav,tx_rate,rx_rate,rts_retx_rate,data_retx_rate,"
                       "active_neighbors,forwarding_nodes,label\n"
                       "1,2,3,4,5,6,7,normal\n"
                       f"1,2,{value},4,5,6,7,attack\n")
        assert main(["train", "--data", str(bad), "--model", str(tmp_path / "m.bin"),
                     "--seed", "1"]) == 1
        assert "row 3" in capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    def test_evaluate_perfect_verdicts(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        write_dataset(truth, 20, 2.0, 5)
        _, labels = esom.read_dataset_csv(truth)
        verdicts = tmp_path / "v.csv"
        results = [esom.Classification(
            esom.VERDICT_ATTACK if l else esom.VERDICT_NORMAL, 0, 0.0) for l in labels]
        esom.write_verdicts_csv(verdicts, results)
        assert main(["evaluate", "--verdicts", str(verdicts), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("1,0,")

    def test_evaluate_length_mismatch(self, tmp_path):
        truth = tmp_path / "truth.csv"
        write_dataset(truth, 10, 2.0, 6)
        verdicts = tmp_path / "v.csv"
        esom.write_verdicts_csv(verdicts, [esom.Classification("normal", 0, 0.0)])
        assert main(["evaluate", "--verdicts", str(verdicts), "--truth", str(truth)]) == 1

    def test_bad_truth_file_is_named(self, tmp_path, capsys):
        verdicts = tmp_path / "v.csv"
        esom.write_verdicts_csv(verdicts, [esom.Classification("normal", 0, 0.0)])
        truth = tmp_path / "truth.csv"
        truth.write_text("nav,tx_rate,rx_rate,rts_retx_rate,data_retx_rate,"
                         "active_neighbors,forwarding_nodes,label\n1,2,3,4,5,6,7,oops\n")
        assert main(["evaluate", "--verdicts", str(verdicts), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == (
            f"error: {truth}: row 2: label must be normal or attack, got 'oops'\n")

    def test_bad_verdict_file_is_named(self, tmp_path, capsys):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text("verdict,best_match,distance\nmaybe,0,0\n")
        truth = tmp_path / "truth.csv"
        write_dataset(truth, 1, 2.0, 6)
        assert main(["evaluate", "--verdicts", str(verdicts), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == f"error: {verdicts}: row 2: bad verdict 'maybe'\n"

    @pytest.mark.parametrize("defect, message", [
        ("features", "model has 3 features, expected 7"),
        ("label", "model label 7 is not 0, 1 or 2"),
        ("lattice", "model lattice 0x0 is smaller than 2x2"),
        ("std", "model normalization needs a finite mean and a finite positive std"),
    ])
    def test_unusable_model_is_input_error(self, tmp_path, capsys, defect, message):
        rows = cols = 0 if defect == "lattice" else 2
        nf = 3 if defect == "features" else 7
        labeling = np.array([0, 7, 1, 2][:rows * cols], dtype=np.int8)
        if defect != "label":
            labeling[labeling == 7] = 0
        stats = esom.NormStats(mean=np.zeros(nf),
                               std=np.zeros(nf) if defect == "std" else np.ones(nf))
        model = tmp_path / "model.bin"
        esom.save_model(model, esom.SomModel(
            esom.SomGrid(rows, cols, np.zeros((rows * cols, nf))), labeling, stats))
        data = tmp_path / "d.csv"
        write_dataset(data, 5, 2.0, 6)
        out = tmp_path / "v.csv"
        assert main(["classify", "--model", str(model), "--data", str(data),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert not out.exists()

    def test_verdict_file_with_blank_first_line(self, tmp_path, capsys):
        verdicts = tmp_path / "v.csv"
        verdicts.write_text("\nverdict,best_match,distance\nnormal,0,0\n")
        truth = tmp_path / "truth.csv"
        write_dataset(truth, 1, 2.0, 6)
        assert main(["evaluate", "--verdicts", str(verdicts), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == f"error: {verdicts}: not a verdict file\n"

    def test_bad_model_file_is_named(self, tmp_path, capsys):
        model = tmp_path / "model.bin"
        model.write_bytes(b"ESM")
        data = tmp_path / "d.csv"
        write_dataset(data, 5, 2.0, 6)
        assert main(["classify", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "v.csv")]) == 1
        assert capsys.readouterr().err == f"error: {model}: model file truncated\n"


class TestModuleEntryPoint:
    """`python -m manetsec` reaches `cli.main` and exits with its status."""

    REPO = Path(__file__).resolve().parent.parent

    def run(self, *args):
        src = str(Path(manetsec.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "manetsec", *args], cwd=self.REPO,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300)

    def test_help(self):
        assert self.run("--help").returncode == 0

    def test_input_error_exits_one(self, tmp_path):
        missing = str(tmp_path / "missing.csv")
        done = self.run("evaluate", "--verdicts", missing, "--truth", missing)
        assert done.returncode == 1
        assert done.stderr.startswith("error:")

    def test_attack_suite(self):
        done = self.run("attack-suite", "--config", "demos/scenario_basic.cfg",
                        "--cycles", "2", "--replay-trials", "2")
        assert done.returncode == 0, done.stderr
