import itertools
import random

import pytest

from manetsec.adversary import (
    backward_secrecy_candidates,
    candidate_group_keys,
    capture_knowledge,
    forward_secrecy_candidates,
    replay_once,
    run_security_suite,
    scan_for_secrets,
)
from manetsec.crypto import CipherSuite, KeyMaterial
from manetsec.protocol import GroupSession

from conftest import make_graph


@pytest.fixture
def churn_session(suite):
    graph = make_graph([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (4, 6), (5, 7),
                        (0, 7), (3, 6), (1, 5)])
    s = GroupSession(graph, 0, set(range(8)), suite, seed=5)
    s.establish()
    return s


class TestOracleMachinery:
    def test_live_member_recovers_current_gk(self, churn_session, suite):
        # positive control: the oracle is strong enough to find what it should
        know = capture_knowledge(churn_session, 4)
        cands = candidate_group_keys(suite, know.keys, churn_session.transport.broadcasts)
        assert churn_session.keys.gk.data in cands

    def test_oracle_with_stolen_master_succeeds(self, churn_session, suite):
        know = capture_knowledge(churn_session, 4)
        mark = len(churn_session.transport.broadcasts)
        keys = churn_session.member_leave(4)
        post = churn_session.transport.broadcasts[mark:]
        stolen = know.keys + [churn_session.master_key]
        cands = candidate_group_keys(suite, stolen, know.delivered + post)
        assert keys.gk.data in cands

    def test_scan_finds_planted_secret(self):
        secret = bytes(range(16))
        blob = b"noise" + secret + b"more"
        assert scan_for_secrets(blob, {secret}, 16) == 1
        assert scan_for_secrets(b"clean bytes only", {secret}, 16) == 0

    def test_pairwise_xor_is_never_narrowed(self, suite):
        # more recovered keys than any fixed cap: every pair still XORs
        rng = random.Random(70)
        keys = [KeyMaterial.random(rng) for _ in range(70)]
        cands = candidate_group_keys(suite, keys, [])
        assert (keys[3] ^ keys[50]).data in cands
        pairs = {bytes(a ^ b for a, b in zip(x.data, y.data))
                 for x, y in itertools.combinations(keys, 2)}
        assert cands == {k.data for k in keys} | pairs


class TestForwardSecrecy:
    def test_leaver_cannot_compute_new_gk(self, churn_session, suite):
        for _ in range(3):
            victim = max(churn_session.members - {churn_session.root,
                                                  churn_session.checker})
            know = capture_knowledge(churn_session, victim)
            mark = len(churn_session.transport.broadcasts)
            keys = churn_session.member_leave(victim)
            post = churn_session.transport.broadcasts[mark:]
            cands = forward_secrecy_candidates(suite, know, post, churn_session.epoch,
                                               sorted(churn_session.members))
            assert keys.gk.data not in cands
            assert keys.gk.data not in know.secrets

    def test_departed_checker_excluded(self, churn_session, suite):
        victim = churn_session.checker
        know = capture_knowledge(churn_session, victim)
        mark = len(churn_session.transport.broadcasts)
        keys = churn_session.member_leave(victim)
        post = churn_session.transport.broadcasts[mark:]
        cands = forward_secrecy_candidates(suite, know, post, churn_session.epoch,
                                           sorted(churn_session.members))
        assert keys.gk.data not in cands


class TestBackwardSecrecy:
    def test_joiner_cannot_compute_old_gks(self, churn_session, suite):
        old = [churn_session.keys.gk.data]
        churn_session.periodic_global_rekey()
        old.append(churn_session.keys.gk.data)
        pre = list(churn_session.transport.broadcasts)
        churn_session.member_join(99, {0, 2})
        know = capture_knowledge(churn_session, 99)
        cands = backward_secrecy_candidates(suite, know, pre)
        for gk in old:
            assert gk not in cands
            assert gk not in know.secrets


class TestReplayHarness:
    def test_replays_are_inert(self, churn_session):
        churn_session.member_join(50, {0})
        churn_session.periodic_global_rekey()
        rng = random.Random(0)
        assert sum(replay_once(churn_session, rng) for _ in range(100)) == 0


class TestSecuritySuite:
    def test_small_suite_all_goals_pass(self):
        report = run_security_suite(seed=123, cycles=20, replay_trials=40)
        assert report.all_passed(), report.verdicts()
        assert report.epochs == 41
        assert report.leaver_trials == 20 and report.joiner_trials == 20

    def test_weakened_build_fails_replay_goal(self):
        report = run_security_suite(seed=123, cycles=3, replay_trials=30,
                                    weaken_nonce_check=True)
        assert not report.verdicts()["replay_resistance"]
        assert report.replay_failures > 0

    def test_ctrhmac_suite_variant(self):
        report = run_security_suite(seed=9, suite=CipherSuite(cipher="ctrhmac"),
                                    cycles=5, replay_trials=20)
        assert report.all_passed()
