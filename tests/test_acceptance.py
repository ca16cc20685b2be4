"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with `pytest -rA` or `-s`). Tolerances are fixed
here, not configurable."""

import contextlib
import hashlib
import random
import time

import numpy as np
import pytest

from manetsec import esom, sim, wire
from manetsec.adversary import run_security_suite
from manetsec.cli import main as cli_main
from manetsec.crypto import CipherSuite, KeyMaterial, NonceSource, xor_combine
from manetsec.keytree import key_path
from manetsec.protocol import GroupSession
from manetsec.response import (
    RoutingTable,
    SecurityMap,
    check_global_trigger,
    distribute_local_maps,
    global_alarm,
)

from conftest import FIG4_EDGES, make_graph


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def fig4_session(seed=7):
    graph = make_graph(FIG4_EDGES)
    return GroupSession(graph, root=1, members=set(range(1, 19)),
                        suite=CipherSuite(), seed=seed, checker=5)


def make_two_class(n_per, sep, rng):
    """Separation is the per-feature mean shift in units of the per-feature
    standard deviation, matching the traffic generator's effect-size knob."""
    normal = rng.normal(0.0, 1.0, size=(n_per, 7))
    attack = rng.normal(sep, 1.0, size=(n_per, 7))
    data = np.vstack([normal, attack])
    labels = np.concatenate([np.zeros(n_per, dtype=int), np.ones(n_per, dtype=int)])
    order = rng.permutation(len(data))
    return data[order], labels[order]


@pytest.fixture(scope="module")
def detector_4sigma():
    """2000 train / 1000 test at 4-sigma separation, 50x80 grid; shared by
    criteria 8 and 9. Returns (model, test data, test labels, train seconds)."""
    data, labels = make_two_class(1000, 4.0, np.random.default_rng(101))
    test, test_labels = make_two_class(500, 4.0, np.random.default_rng(103))
    config = esom.SomConfig(rows=50, cols=80, epochs=20)
    t0 = time.monotonic()
    model = esom.fit_detector(data, labels, config, np.random.default_rng(107))
    elapsed = time.monotonic() - t0
    return model, test, test_labels, elapsed


def test_c01_key_agreement_convergence():
    with criterion(1, "key agreement convergence on the 18-party topology"):
        t0 = time.monotonic()
        s = fig4_session()
        keys = s.establish()
        elapsed = time.monotonic() - t0
        assert len(s.tree.members()) == 17 and s.checker == 5
        held = {nid: node.state.session_key.data for nid, node in s.nodes.items()}
        assert len(held) == 18
        assert len(set(held.values())) == 1
        ledger = s.share_ledger()
        assert len(ledger) == 18
        assert keys.gk == xor_combine(list(ledger.values()))
        assert elapsed < 1.0
        # deterministic: an identical session derives the identical key
        s2 = fig4_session()
        assert s2.establish().gk.data == keys.gk.data


def test_c02_local_keys():
    with criterion(2, "local keys LK_j = z xor S_j on both sides"):
        s = fig4_session()
        s.establish()
        z = s.nodes[1].state.subkey
        level1 = s.tree.children[1]
        assert level1 == [2, 3, 4]
        for j in level1:
            expect = (z ^ s.nodes[j].state.share).data
            assert s.nodes[1].state.local_keys[j].data == expect
            assert s.nodes[j].state.local_keys[j].data == expect


def test_c03_join_correctness():
    with criterion(3, "joining refreshes exactly the key path"):
        s = fig4_session()
        s.establish()
        before = {n: node.state.share.data for n, node in s.nodes.items() if n != 5}
        keys = s.member_join(19, {6})
        assert key_path(s.tree, 19) == [19, 6, 2, 1]
        after = {n: s.nodes[n].state.share.data for n in s.tree.members()}
        refreshed = {n for n in before if after.get(n) != before[n] and n in after}
        assert refreshed == {6, 2, 1}  # plus the joiner's first share
        assert after[19] is not None
        ledger = s.share_ledger()  # includes the checker's fresh agreement share
        assert keys.gk == xor_combine(list(ledger.values()))
        assert keys.gk.data == s.nodes[19].state.session_key.data


def test_c04_periodic_rekey_algebra():
    with criterion(4, "rekey ratchets: new xor old equals the fresh share"):
        s = fig4_session(seed=11)
        s.establish()
        suite = s.suite
        for _ in range(100):
            gk_old = s.keys.gk
            keys = s.periodic_global_rekey()
            msg = next(m for m in reversed(s.transport.messages)
                       if m.kind == wire.MessageKind.GLOBAL_REKEY)
            _, fresh, _ = wire.unpack(msg.kind, suite.decrypt(gk_old, msg.payload))
            assert (keys.gk ^ gk_old).data == fresh.data
        rng = random.Random(5)
        for _ in range(100):
            j = rng.choice(s.tree.children[1])
            lk_old = s.nodes[1].state.local_keys[j]
            lk_new = s.periodic_local_rekey(j)
            msg = next(m for m in reversed(s.transport.messages)
                       if m.kind == wire.MessageKind.LOCAL_REKEY_STEP1)
            _, fresh, _ = wire.unpack(msg.kind, suite.decrypt(lk_old, msg.payload))
            assert (lk_new ^ lk_old).data == fresh.data
            assert s.nodes[j].state.local_keys[j].data == lk_new.data


def test_c05_security_goal_suite():
    with criterion(5, "security goals: secrecy, replay, forward, backward"):
        report = run_security_suite(seed=77, cycles=1000, replay_trials=100)
        assert report.epochs >= 1000
        assert report.transcript_hits == 0
        assert report.replay_trials >= 100 and report.replay_failures == 0
        assert report.leaver_trials == 1000 and report.leaver_breaks == 0
        assert report.joiner_trials == 1000 and report.joiner_breaks == 0
        assert report.elapsed < 60.0


def test_c06_global_trigger_and_quarantine():
    with criterion(6, "two-thirds trigger and full quarantine"):
        assert check_global_trigger(SecurityMap(5, 21, 30)) is True      # 0.70
        assert check_global_trigger(SecurityMap(5, 20, 30)) is False     # exactly 2/3
        assert check_global_trigger(SecurityMap(5, 18, 30)) is False     # 0.60
        suite = CipherSuite()
        rng = random.Random(3)
        graph = make_graph([(3, 1), (3, 2), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
                            (1, 4), (4, 5)])
        tables = {n: RoutingTable(owner=n) for n in graph}
        for t in tables.values():
            t.rebuild(graph)
        assert any(4 in t.next_hop.values() for t in tables.values())
        gk = KeyMaterial.random(rng)
        res = global_alarm(suite, SecurityMap(4, 28, 30), gk, tables, graph,
                           NonceSource(rng))
        assert res.accepted == set(graph[4])
        for n, table in tables.items():
            if n in res.accepted:
                assert 4 not in table.next_hop
                assert 4 not in table.next_hop.values()


def test_c07_map_integrity_fuzz():
    with criterion(7, "single-bit map or alarm tamper always rejected"):
        suite = CipherSuite()
        rng = random.Random(13)
        lk = {2: KeyMaterial.random(rng)}
        maps = {1: SecurityMap(1, 2, 40, model_bytes=b"m1" * 40),
                2: SecurityMap(2, 30, 40, model_bytes=b"m2" * 40)}
        for trial in range(500):
            def flip_reply(step, sender, receiver, payload, digest):
                if step != "reply":
                    return payload, digest
                blob = bytearray(payload + digest)
                pos = rng.randrange(len(blob) * 8)
                blob[pos // 8] ^= 1 << (pos % 8)
                return bytes(blob[: len(payload)]), bytes(blob[len(payload):])

            res = distribute_local_maps(suite, 1, lk, maps,
                                        NonceSource(rng), channel=flip_reply)
            assert 2 not in res.glm.entries and 2 in res.tampered, trial

        graph = make_graph([(4, 1), (4, 2), (4, 3)])
        gk = KeyMaterial.random(rng)
        for trial in range(500):
            def flip_alarm(step, sender, receiver, payload, digest):
                blob = bytearray(payload + digest)
                pos = rng.randrange(len(blob) * 8)
                blob[pos // 8] ^= 1 << (pos % 8)
                return bytes(blob[: len(payload)]), bytes(blob[len(payload):])

            tables = {n: RoutingTable(owner=n) for n in (1, 2, 3)}
            res = global_alarm(suite, SecurityMap(4, 28, 30, model_bytes=b"x" * 64),
                               gk, tables, graph, NonceSource(rng),
                               channel=flip_alarm)
            assert res.accepted == set(), trial
            assert all(not t.quarantined for t in tables.values())


def test_c08_detector_on_synthetic_two_class(detector_4sigma):
    with criterion(8, "detector accuracy at 4 and 1.5 sigma separations"):
        model, test, test_labels, train_seconds = detector_4sigma
        assert train_seconds <= 60.0
        normed = esom.apply_normalization(model.stats, test)
        verdicts = [c.verdict for c in
                    esom.classify_batch(model.grid, model.labeling, normed)]
        truth = [esom.VERDICT_ATTACK if l else esom.VERDICT_NORMAL for l in test_labels]
        report = esom.evaluate(verdicts, truth)
        assert report.detection_rate >= 0.95, report
        assert report.false_alarm_rate <= 0.05, report

        data, labels = make_two_class(1000, 1.5, np.random.default_rng(211))
        test2, test2_labels = make_two_class(500, 1.5, np.random.default_rng(223))
        config = esom.SomConfig(rows=50, cols=80, epochs=20)
        model2 = esom.fit_detector(data, labels, config, np.random.default_rng(227))
        normed2 = esom.apply_normalization(model2.stats, test2)
        verdicts2 = [c.verdict for c in
                     esom.classify_batch(model2.grid, model2.labeling, normed2)]
        truth2 = [esom.VERDICT_ATTACK if l else esom.VERDICT_NORMAL
                  for l in test2_labels]
        report2 = esom.evaluate(verdicts2, truth2)
        assert report2.detection_rate >= 0.80, report2


def test_c09_umatrix_boundary_property(detector_4sigma):
    with criterion(9, "U-Matrix boundary band rises over cluster interiors"):
        model, _, _, _ = detector_4sigma
        u = esom.compute_umatrix(model.grid)
        labeling = model.labeling
        rows, cols = model.grid.rows, model.grid.cols
        rr, cc = np.divmod(np.arange(rows * cols), cols)
        # inter-cluster band: hill neurons sitting between the two class
        # regions, located at the smallest lattice radius that reaches both
        d_normal = _nearest_class_distance(labeling, esom.LABEL_NORMAL, rr, cc)
        d_attack = _nearest_class_distance(labeling, esom.LABEL_ATTACK, rr, cc)
        hills = labeling == esom.LABEL_HILL
        reach = np.maximum(d_normal, d_attack)
        radius = int(reach[hills].min())
        band = hills & (reach <= radius)
        interior = (~hills) & (d_normal > radius) | (~hills) & (d_attack > radius)
        interior &= labeling != esom.LABEL_HILL
        assert band.any() and interior.any()
        assert u[band].mean() >= 1.5 * u[interior].mean()


def _nearest_class_distance(labeling, cls, rr, cc):
    """Chebyshev lattice distance from every neuron to the nearest neuron of
    the given class."""
    targets = np.flatnonzero(labeling == cls)
    dr = np.abs(rr[:, None] - rr[targets])
    dc = np.abs(cc[:, None] - cc[targets])
    return np.maximum(dr, dc).min(axis=1)


def test_c10_determinism_of_commands(tmp_path):
    with criterion(10, "identical seed and config give identical bytes"):
        scenario = tmp_path / "scenario.cfg"
        scenario.write_text(
            "node_count = 16\narea_width = 600\narea_height = 400\nrange = 250\n"
            "duration = 40\nroot = 0\nseed = 21\ngenerators = 6\ndestinations = 3\n"
            "attack_start = 10\nattack_end = 40\ndroppers = 3,7\neavesdroppers = 5\n"
            "som_rows = 8\nsom_cols = 10\nsom_epochs = 6\ncoverage_window = 10\n"
            "global_rekey_at = 25\n")
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["simulate", "--config", str(scenario),
                             "--out", str(out)]) == 0
            digests.append(tuple(
                hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("metrics.csv", "events.log")))
        assert digests[0] == digests[1]

        train_csv = tmp_path / "train.csv"
        data, labels = make_two_class(150, 3.0, np.random.default_rng(31))
        esom.write_dataset_csv(train_csv, data, labels)
        hashes = []
        for name in ("m1.bin", "m2.bin"):
            model = tmp_path / name
            assert cli_main(["train", "--data", str(train_csv), "--model", str(model),
                             "--seed", "17", "--rows", "8", "--cols", "10",
                             "--epochs", "6"]) == 0
            hashes.append(hashlib.sha256(model.read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

        verdict_hashes, metric_hashes, suite_hashes = [], [], []
        for tag in ("x", "y"):
            verdicts = tmp_path / f"verdicts_{tag}.csv"
            assert cli_main(["classify", "--model", str(tmp_path / "m1.bin"),
                             "--data", str(train_csv), "--out", str(verdicts)]) == 0
            verdict_hashes.append(hashlib.sha256(verdicts.read_bytes()).hexdigest())
            metrics = tmp_path / f"eval_{tag}.csv"
            assert cli_main(["evaluate", "--verdicts", str(verdicts),
                             "--truth", str(train_csv), "--out", str(metrics)]) == 0
            metric_hashes.append(hashlib.sha256(metrics.read_bytes()).hexdigest())
            suite_dir = tmp_path / f"suite_{tag}"
            assert cli_main(["attack-suite", "--config", str(scenario),
                             "--cycles", "3", "--replay-trials", "10",
                             "--out", str(suite_dir)]) == 0
            suite_hashes.append(hashlib.sha256(
                (suite_dir / "attack_suite.txt").read_bytes()).hexdigest())
        assert verdict_hashes[0] == verdict_hashes[1]
        assert metric_hashes[0] == metric_hashes[1]
        assert suite_hashes[0] == suite_hashes[1]
