"""The four closed-loop workloads of the manetsec benchmark.

Each workload is one caller that starts its next operation when the previous
one returns. A run is a sequence of units: `prepare(unit)` builds the unit's
inputs from the run seed and the unit index outside any timer, and
`run(unit)` executes it, times it, checks its outputs and returns a
`UnitResult`. Unit 0 is the reference unit: its digest is the workload's
output digest, and the traced run executes exactly unit 0 again.

Every unit draws fresh inputs from (seed, unit), so one run averages over
several inputs instead of timing a single draw.

Each operation is also reported scaled to a fixed host speed, measured by
`HostSpeed` while the operation runs: a shared host can run the same code up
to twice as fast from one minute to the next.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from manetsec import adversary, cli, esom
from manetsec.crypto import CipherSuite
from manetsec.keytree import TreeError
from manetsec.protocol import GroupSession, ProtocolAbort

clock = time.perf_counter
REFERENCE_LOOPS = 5_000
REFERENCE_S = 0.0006     # one reference loop on the baseline host when it runs fast
PROBE_INTERVAL_S = 0.1


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    t0 = clock()
    acc, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        table[i & 1023] = i
        acc += i * i
    return clock() - t0


class HostSpeed:
    """The host's speed while a block runs. The reference loop is timed three
    times on entry and on exit, and every PROBE_INTERVAL_S in between from a
    SIGALRM handler in this thread. `scale` turns the block's wall time into
    the time it would have taken had one loop taken REFERENCE_S."""

    def __enter__(self) -> "HostSpeed":
        self.samples = [reference_loop() for _ in range(3)]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_loop())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(reference_loop() for _ in range(3))

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


def sub_seed(*parts) -> int:
    """64-bit seed derived from the run seed, the workload and the unit."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass
class UnitResult:
    op_ms: list[float]            # wall time of each closed-loop operation
    op_scaled_ms: list[float]     # the same, scaled to the reference host speed
    digest: str                   # sha256 of the unit's outputs
    gates: list[str]              # failed correctness gates, empty when correct
    ops_total: int                # operations attempted, for failed_frac
    ops_failed: int               # aborted epochs, oracle breaks, failed gates
    stats: dict = field(default_factory=dict)


class ChurnSuite:
    """`run_security_suite` on the 8-node ring+chord group: leave/join cycles
    under the forward/backward secrecy oracles, the transcript scan and the
    replay probes. One operation is one suite call."""

    name = "churn_suite"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.cycles = 5 if smoke else 100
        self.replay_trials = 10 if smoke else 100

    def prepare(self, unit: int) -> None:
        self.unit_seed = sub_seed(self.seed, self.name, unit)

    def run(self, unit: int) -> UnitResult:
        with HostSpeed() as speed:
            t0 = clock()
            rep = adversary.run_security_suite(self.unit_seed, cycles=self.cycles,
                                               replay_trials=self.replay_trials)
            wall = clock() - t0
        expected = 2 * self.cycles + 1
        gates = [f"{goal} FAIL" for goal, ok in rep.verdicts().items() if not ok]
        if rep.epochs != expected:
            gates.append(f"epochs {rep.epochs} != {expected}")
        table = (f"epochs {rep.epochs}\ntranscript_bytes {rep.transcript_bytes}\n"
                 f"transcript_hits {rep.transcript_hits}\n"
                 f"replay {rep.replay_failures}/{rep.replay_trials}\n"
                 f"leaver {rep.leaver_breaks}/{rep.leaver_trials}\n"
                 f"joiner {rep.joiner_breaks}/{rep.joiner_trials}\n")
        breaks = (rep.transcript_hits + rep.replay_failures + rep.leaver_breaks
                  + rep.joiner_breaks + (rep.epochs != expected))
        return UnitResult(op_ms=[wall * 1e3], op_scaled_ms=[wall * 1e3 * speed.scale],
                          digest=hashlib.sha256(table.encode()).hexdigest(),
                          gates=gates, ops_total=rep.epochs, ops_failed=breaks,
                          stats={"wall_s": wall, "epochs": rep.epochs,
                                 "transcript_bytes": rep.transcript_bytes})

    def summarize(self, results: list[UnitResult]) -> dict:
        return {
            "suite_epochs_per_s": statistics.median(
                r.stats["epochs"] / r.stats["wall_s"] for r in results),
            "wire_bytes_per_epoch": sum(r.stats["transcript_bytes"] for r in results)
            / sum(r.stats["epochs"] for r in results),
        }


def ring_chord(n: int, chord: int) -> dict[int, set[int]]:
    graph: dict[int, set[int]] = {i: set() for i in range(n)}
    for i in range(n):
        for step in (1, chord):
            j = (i + step) % n
            graph[i].add(j)
            graph[j].add(i)
    return graph


class GroupN200:
    """A 200-member ring+chord group (chord to i+17) on the lossless
    Transport. One operation is a cycle of four epochs, half rekeys and half
    churn: two rekeys (each a seeded choice of global or local ratchet), then
    a seeded leave and a join that inherits the leaver's edges, so N stays
    200. A unit is an episode of `cycles` cycles
    on a freshly established group, so the state that grows with run length
    (transcript, burned nonces) is the same in every run however fast the
    program is."""

    name = "group_n200"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.n, self.chord, self.cycles = (24, 5, 3) if smoke else (200, 17, 20)
        self.graph = ring_chord(self.n, self.chord)
        self.suite = CipherSuite()

    def prepare(self, unit: int) -> None:
        seed = sub_seed(self.seed, self.name, unit)
        self.rng = random.Random(seed)
        self.session = GroupSession(self.graph, root=0, members=set(range(self.n)),
                                    suite=self.suite, seed=seed)
        self.session.establish()

    def run(self, unit: int) -> UnitResult:
        s, rng = self.session, self.rng
        mark = len(s.transport.transcript)
        gk_log = hashlib.sha256()
        rekey_ms: list[float] = []
        churn_ms: list[float] = []
        op_ms: list[float] = []
        op_scaled: list[float] = []
        gates: list[str] = []
        failed = epochs = 0
        next_id = self.n

        def epoch(label, fn, *args) -> float:
            nonlocal failed, epochs
            epochs += 1
            before = len(gates)
            t0 = clock()
            try:
                fn(*args)
            except (ProtocolAbort, TreeError) as e:
                gates.append(f"{label} aborted: {e}")
            ms = (clock() - t0) * 1e3
            # gate outside the timer: every member holds GK = XOR of the shares
            gk = s.gk_oracle()
            stale = [n for n, node in s.nodes.items() if node.state.session_key != gk]
            if stale or s.keys.gk != gk:
                gates.append(f"{label}: {len(stale)} members disagree with gk_oracle")
            failed += len(gates) > before
            gk_log.update(gk.data)
            return ms

        for _ in range(self.cycles):
            with HostSpeed() as speed:
                rekeys = []
                for _ in range(2):
                    keyed = sorted(m for m in s.tree.children.get(s.root, ())
                                   if s.nodes[m].state.local_keys.get(m) is not None)
                    if keyed and rng.random() < 0.5:
                        rekeys.append(epoch("local_rekey", s.periodic_local_rekey,
                                            rng.choice(keyed)))
                    else:
                        rekeys.append(epoch("global_rekey", s.periodic_global_rekey))
                leaver = rng.choice(sorted(s.members - {s.root}))
                former = set(s.graph[leaver])
                churn = [epoch("leave", s.member_leave, leaver),
                         epoch("join", s.member_join, next_id,
                               {e for e in former if e in s.members})]
            next_id += 1
            if len(s.members) != self.n:
                gates.append(f"N = {len(s.members)} after leave+join, expected {self.n}")
                failed += 1
            rekey_ms.extend(rekeys)
            churn_ms.extend(churn)
            op_ms.append(sum(rekeys) + sum(churn))
            op_scaled.append(op_ms[-1] * speed.scale)
        transcript = bytes(s.transport.transcript)
        gk_log.update(transcript)
        self.session = None
        return UnitResult(op_ms=op_ms, op_scaled_ms=op_scaled, digest=gk_log.hexdigest(),
                          gates=gates, ops_total=epochs, ops_failed=failed,
                          stats={"rekey_ms": rekey_ms, "churn_ms": churn_ms, "epochs": epochs,
                                 "wire_bytes": len(transcript) - mark})

    def summarize(self, results: list[UnitResult]) -> dict:
        rekey = [x for r in results for x in r.stats["rekey_ms"]]
        churn = [x for r in results for x in r.stats["churn_ms"]]
        return {
            "rekey_ms.p50": statistics.median(rekey),
            "rekey_ms.p90": percentile(rekey, 90),
            "churn_ms.p50": statistics.median(churn),
            "churn_ms.p90": percentile(churn, 90),
            "rekey_samples": len(rekey),
            "churn_samples": len(churn),
            "wire_bytes_per_epoch": sum(r.stats["wire_bytes"] for r in results)
            / sum(r.stats["epochs"] for r in results),
        }


# 200-node version of demos/scenario_basic.cfg: the same density, duration,
# mobility, traffic and schedule, with the adversaries scaled up. The mobility
# seed stays the demo's 42: across twelve mobility seeds one simulate took
# 1.0-5.1 s, a spread no bound could gate, so the run seed draws the
# adversary roster instead.
RADIO_CONFIG = """\
node_count = {n}
area_width = {width}
area_height = {height}
range = 250
duration = {duration}
root = 0
seed = 42
speed_min = 0
speed_max = 10
pause_time = 20
generators = 20
destinations = 10
mean_payload = 512
attack_start = {attack_start}
attack_end = {duration}
effect_size = 4.0
droppers = {droppers}
eavesdroppers = {eavesdroppers}
replayers = {replayers}
som_rows = 12
som_cols = 16
som_epochs = {som_epochs}
coverage_window = 30
global_rekey_at = {t_global}
join_at = {t_join}:{n}
local_rekey_at = {t_local}
leave_at = {t_leave}:{n}
"""
SCHEDULED_EPOCHS = 5  # establish plus the four scheduled epochs above


class Radio200:
    """`manetsec simulate` through `cli.main` on the 200-node scenario. One
    operation is one whole simulate run, file writes included."""

    name = "radio_200"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        if smoke:
            self.n, self.duration, self.adversaries = 40, 40.0, (2, 1, 1)
            self.shape = dict(width=1600, height=900, attack_start=10, som_epochs=2,
                              t_global=10, t_join=20, t_local=25, t_leave=30)
        else:
            self.n, self.duration, self.adversaries = 200, 200.0, (10, 2, 2)
            self.shape = dict(width=3600, height=2000, attack_start=50, som_epochs=10,
                              t_global=100, t_join=120, t_local=140, t_leave=150)

    def prepare(self, unit: int) -> None:
        rng = random.Random(sub_seed(self.seed, self.name, unit))
        nd, ne, nr = self.adversaries
        roster = rng.sample(range(1, self.n), nd + ne + nr)
        text = RADIO_CONFIG.format(
            n=self.n, duration=int(self.duration), **self.shape,
            droppers=",".join(map(str, sorted(roster[:nd]))),
            eavesdroppers=",".join(map(str, sorted(roster[nd:nd + ne]))),
            replayers=",".join(map(str, sorted(roster[nd + ne:]))))
        self.unit_dir = self.workdir / f"{self.name}-{unit}"
        self.unit_dir.mkdir(parents=True, exist_ok=True)
        self.config = self.unit_dir / "scenario.cfg"
        self.config.write_text(text)

    def run(self, unit: int) -> UnitResult:
        out = self.unit_dir / "out"
        with HostSpeed() as speed, contextlib.redirect_stdout(io.StringIO()):
            t0 = clock()
            code = cli.main(["simulate", "--config", str(self.config), "--out", str(out)])
            wall = clock() - t0
        gates = [] if code == 0 else [f"simulate exited {code}"]
        metrics = (out / "metrics.csv").read_bytes() if code == 0 else b""
        events = (out / "events.log").read_bytes() if code == 0 else b""
        shutil.rmtree(self.unit_dir)
        rows = list(csv.DictReader(io.StringIO(metrics.decode())))
        if len(rows) != 1:
            gates.append(f"metrics.csv has {len(rows)} rows, expected 1")
            row = {}
        else:
            row = rows[0]
            for key in ("eavesdrop_secret_hits", "replay_state_changes"):
                if row[key] != "0":
                    gates.append(f"{key} = {row[key]}")
        aborted = int(row.get("epochs_aborted") or 0)
        quality = {k: float(row[k]) for k in
                   ("detection_rate", "false_alarm_rate", "unclassified_fraction")
                   if row.get(k)}
        return UnitResult(op_ms=[wall * 1e3], op_scaled_ms=[wall * 1e3 * speed.scale],
                          digest=hashlib.sha256(metrics + events).hexdigest(),
                          gates=gates, ops_total=SCHEDULED_EPOCHS,
                          ops_failed=aborted + len(gates),
                          stats={"wall_s": wall, "sim_s": self.duration, **quality,
                                 "epochs_attempted": int(row.get("epochs_attempted") or 0),
                                 "epochs_aborted": aborted})

    def summarize(self, results: list[UnitResult]) -> dict:
        ref = results[0].stats
        out = {"sim_s_per_wall_s": statistics.median(
            r.stats["sim_s"] / r.stats["wall_s"] for r in results)}
        out.update({k: ref[k] for k in ("detection_rate", "false_alarm_rate",
                                        "unclassified_fraction") if k in ref})
        out["epochs_scheduled"] = results[0].ops_total
        out["epochs_attempted"] = ref["epochs_attempted"]
        out["epochs_aborted"] = ref["epochs_aborted"]
        return out


def two_class(n_per: int, sep: float, rng: np.random.Generator):
    """Two isotropic 7-D Gaussians `sep` per-feature standard deviations apart."""
    data = np.vstack([rng.normal(0.0, 1.0, size=(n_per, esom.N_FEATURES)),
                      rng.normal(sep, 1.0, size=(n_per, esom.N_FEATURES))])
    labels = np.repeat([esom.LABEL_NORMAL, esom.LABEL_ATTACK], n_per)
    order = rng.permutation(len(data))
    return data[order], labels[order]


class Detector50x80:
    """`fit_detector` on 2000 two-class samples at 1.5 sigma (50x80 lattice,
    20 epochs), then normalize + `classify_batch` on 10 000 held-out samples
    and `evaluate`. One operation is the whole fit, classify, evaluate pass.
    At 1.5 sigma the quality metrics are not saturated, so a trainer that
    loses accuracy shows."""

    name = "detector_50x80"
    separation = 1.5

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        if smoke:
            self.config = esom.SomConfig(rows=6, cols=8, epochs=2)
            self.n_train, self.n_test = 200, 400
        else:
            self.config = esom.SomConfig(rows=50, cols=80, epochs=20)
            self.n_train, self.n_test = 2000, 10000

    def prepare(self, unit: int) -> None:
        rng = np.random.default_rng(sub_seed(self.seed, self.name, unit))
        self.train, self.train_labels = two_class(self.n_train // 2, self.separation, rng)
        self.test, self.test_labels = two_class(self.n_test // 2, self.separation, rng)
        self.fit_seed = sub_seed(self.seed, self.name, unit, "fit")

    def run(self, unit: int) -> UnitResult:
        with HostSpeed() as speed:
            t0 = clock()
            model = esom.fit_detector(self.train, self.train_labels, self.config,
                                      np.random.default_rng(self.fit_seed))
            t1 = clock()
            results = esom.classify_batch(model.grid, model.labeling,
                                          esom.apply_normalization(model.stats, self.test))
            t2 = clock()
            verdicts = [c.verdict for c in results]
            truth = [esom.VERDICT_ATTACK if lab == esom.LABEL_ATTACK else esom.VERDICT_NORMAL
                     for lab in self.test_labels]
            gates = []
            if len(verdicts) != len(truth):
                gates.append(f"{len(verdicts)} verdicts for {len(truth)} test samples")
                report = None
            else:
                report = esom.evaluate(verdicts, truth)
            wall = clock() - t0
        digest = hashlib.sha256(model.to_bytes() + "\n".join(verdicts).encode()).hexdigest()
        stats = {"fit_s": t1 - t0, "classify_s": t2 - t1}
        if report is not None:
            stats.update(detection_rate=report.detection_rate,
                         false_alarm_rate=report.false_alarm_rate,
                         unclassified_fraction=report.unclassified_fraction)
        return UnitResult(op_ms=[wall * 1e3], op_scaled_ms=[wall * 1e3 * speed.scale],
                          digest=digest, gates=gates,
                          ops_total=len(truth), ops_failed=abs(len(truth) - len(verdicts)),
                          stats=stats)

    def summarize(self, results: list[UnitResult]) -> dict:
        ref = results[0].stats
        out = {
            "fit_samples_per_s": statistics.median(self.n_train / r.stats["fit_s"]
                                                   for r in results),
            "classify_samples_per_s": statistics.median(self.n_test / r.stats["classify_s"]
                                                        for r in results),
        }
        out.update({k: ref[k] for k in ("detection_rate", "false_alarm_rate",
                                        "unclassified_fraction") if ref.get(k) is not None})
        return out


WORKLOADS = {w.name: w for w in (ChurnSuite, GroupN200, Radio200, Detector50x80)}
