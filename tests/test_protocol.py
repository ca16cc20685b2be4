import dataclasses
import hashlib
import inspect
import random
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from manetsec import wire
from manetsec.adversary import replay_moves_state
from manetsec.crypto import MAX_NONCE, CipherSuite, IntegrityFailure, KeyMaterial, xor_combine
from manetsec.protocol import (
    CheckerVerificationFailure,
    GroupSession,
    InitiationTimeout,
    NodeState,
    ProtocolAbort,
    ProtocolNode,
    RekeyFailure,
    SessionKeys,
    Transport,
    UnsupportedLeave,
    _COPIED,
    _HANDLERS,
    derive_master_key,
    membership,
)
from manetsec.keytree import KeyTree, TreeError, bfs_parents, dump_tree, key_path
from manetsec.wire import BROADCAST, LAYOUTS, SEALED_KINDS, MessageKind, ProtocolMessage, pack

from conftest import make_graph, random_geometric


def all_members(session):
    return {nid: node.state for nid, node in session.nodes.items()}


def held_keys(value):
    """Every KeyMaterial inside a state value, nested containers included."""
    if isinstance(value, KeyMaterial):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list, set)):
        return [k for v in value for k in held_keys(v)]
    return []


def unlisted_keys(state):
    """Names of the fields holding a key that `key_material()` leaves out."""
    listed = {k.data for k in state.key_material()}
    return {f.name for f in dataclasses.fields(NodeState)
            if any(k.data not in listed for k in held_keys(getattr(state, f.name)))}


def stray_keys(session):
    """(node, field) for every key a node holds outside its `key_material()`."""
    return {(nid, name) for nid, node in session.nodes.items()
            for name in unlisted_keys(node.state)}


class TamperingTransport(Transport):
    """Flips the low bit of the last payload byte of every message matching
    the predicate."""

    def __init__(self, predicate):
        super().__init__()
        self.predicate = predicate
        self.hits = 0

    def channel(self, msg):
        if not (self.predicate(msg) and msg.payload):
            return msg
        self.hits += 1
        return dataclasses.replace(msg, payload=msg.payload[:-1] + bytes([msg.payload[-1] ^ 1]))


class LossyTransport(Transport):
    def __init__(self, predicate):
        super().__init__()
        self.predicate = predicate

    def channel(self, msg):
        return None if self.predicate(msg) else msg


def zero_shares(monkeypatch):
    """Every share drawn from now on is the zero key."""
    monkeypatch.setattr(ProtocolNode, "refresh_share",
                        lambda node: setattr(node.state, "share", KeyMaterial.zero()))


class TestKeyInitiation:
    def test_zero_shares_fold_to_zero(self, fig4_session, monkeypatch):
        zero = KeyMaterial.zero()
        zero_shares(monkeypatch)
        fig4_session.run_key_initiation()
        lks = fig4_session.local_keys
        assert fig4_session.nodes[1].state.subkey == zero
        assert set(lks) == {2, 3, 4}
        assert all(v == zero for v in lks.values())

    def test_leaf_intermediate_is_share(self, fig4_session):
        fig4_session.run_key_initiation()
        for leaf in (9, 14, 15, 16, 17, 18):
            st = fig4_session.nodes[leaf].state
            assert st.intermediate == st.share

    def test_parent_folds_children(self, fig4_session):
        fig4_session.run_key_initiation()
        st10 = fig4_session.nodes[10].state
        s14 = fig4_session.nodes[14].state.share
        s15 = fig4_session.nodes[15].state.share
        assert st10.intermediate == xor_combine([st10.share, s14, s15])

    def test_z_matches_xor_oracle(self, fig4_session):
        fig4_session.run_key_initiation()
        z = fig4_session.nodes[1].state.subkey
        shares = fig4_session.share_ledger()
        assert set(shares) == set(range(1, 19)) - {5}  # the checker draws at agreement
        assert z == xor_combine(list(shares.values()))

    def test_timeout_on_lost_step3(self, fig4_graph, suite):
        lost = LossyTransport(lambda m: m.kind == MessageKind.AUTH_STEP3 and m.sender == 9)
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=3,
                         checker=5, transport=lost)
        with pytest.raises(InitiationTimeout):
            s.establish()
        assert s.epoch == 0 and s.keys is None

    def test_reestablish_judges_the_new_fold(self, fig4_graph, suite):
        """A re-establish is complete only when the root folded every child's
        new report; the root's z from the last epoch does not count."""
        lost = set()
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5,
                         transport=LossyTransport(lambda m: (m.kind, m.sender) in lost))
        s.establish()
        keys = s.keys
        lost.add((MessageKind.AUTH_STEP3, 9))
        with pytest.raises(InitiationTimeout, match=r"edges: \[4\]$"):
            s.establish()
        assert s.keys is keys and s.epoch == 1
        assert all(node.state.session_key == s.gk_oracle() == keys.gk
                   for node in s.nodes.values())
        lost.clear()
        keys = s.establish()
        assert keys.epoch == 2 and keys.gk == s.gk_oracle()
        assert all(node.state.session_key == keys.gk for node in s.nodes.values())

    def test_join_refold_judged_by_the_same_rule(self, fig4_graph, suite):
        lost = set()
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5,
                         transport=LossyTransport(lambda m: (m.kind, m.sender) in lost))
        s.establish()
        lost.add((MessageKind.JOIN_STEP_C, 18))  # on the joiner's path 19-18-13-8-3
        with pytest.raises(InitiationTimeout, match=r"edges: \[3\]$"):
            s.member_join(19, {18})
        assert 19 not in s.nodes and s.epoch == 1
        lost.clear()
        assert s.member_join(20, {18}).gk == s.gk_oracle()

    def test_step3_waits_for_the_parent_and_every_child(self, fig4_session):
        """An exchange's progress is its pending nonce: "up_echo" until step 2,
        then "up_final" until step 3 goes up, once no child is pending."""
        root, node4, node9 = (fig4_session.nodes[n] for n in (1, 4, 9))
        node4.refresh_share()
        node9.refresh_share()
        pending = node4.state.pending_nonces
        [up1] = node4.begin_exchange(MessageKind.AUTH_STEP1, {9})
        assert set(pending) == {"up_echo"}
        [up2] = root.step(up1)
        assert node4.step(up2) == []  # child 9 has not reported yet
        assert set(pending) == {"up_final"}
        [leaf1] = node9.begin_exchange(MessageKind.AUTH_STEP1, set())
        [leaf3] = node9.step(*node4.step(leaf1))
        [up3] = node4.step(leaf3)
        assert (up3.kind, up3.receiver) == (MessageKind.AUTH_STEP3, 1)
        assert pending == {} and node4.state.pending_children == set()
        assert node4.step(leaf3) == []  # a replayed report sends nothing

    def test_an_exchange_answers_in_its_own_family(self, fig4_session):
        """Key initiation runs the auth kinds and a join's refresh the join
        kinds; a leave runs the auth kinds only on the edges it keys fresh,
        then the join kinds; each step 2 and 3 answers in its edge's family."""
        auth = {MessageKind.AUTH_STEP1, MessageKind.AUTH_STEP2, MessageKind.AUTH_STEP3}
        join = {MessageKind.JOIN_STEP_A, MessageKind.JOIN_STEP_B, MessageKind.JOIN_STEP_C}
        s, log = fig4_session, fig4_session.transport.messages

        def exchange_frames(run):
            start = len(log)
            run()
            return [m for m in log[start:] if m.kind in auth | join]

        establish = exchange_frames(s.establish)
        joined = exchange_frames(lambda: s.member_join(19, {18}))
        s.member_join(20, {12, 13})
        keyed = {n: set(node.state.edge_keys) for n, node in s.nodes.items()}
        leave = exchange_frames(lambda: s.member_leave(3))  # 8 moves below 20
        fresh = {(c, p) for c, p in [*s.tree.parent.items(), (s.checker, s.root)]
                 if p not in keyed[c]}

        assert {m.kind for m in establish} == auth
        assert {m.kind for m in joined} == join
        split = next(i for i, m in enumerate(leave) if m.kind in join)
        assert fresh and {(m.sender, m.receiver) for m in leave[:split]
                          if m.kind == MessageKind.AUTH_STEP1} == fresh
        assert all(m.kind in auth for m in leave[:split])
        assert all(m.kind in join for m in leave[split:])
        for frames in (establish, joined, leave):
            opened = {}  # (child, parent) -> the family of its last step 1
            for m in frames:
                family = auth if m.kind in auth else join
                if m.kind in (MessageKind.AUTH_STEP1, MessageKind.JOIN_STEP_A):
                    opened[m.sender, m.receiver] = family
                elif m.kind in (MessageKind.AUTH_STEP2, MessageKind.JOIN_STEP_B):
                    assert opened[m.receiver, m.sender] is family, m
                else:
                    assert opened[m.sender, m.receiver] is family, m


class TestSessionAgreement:
    def test_zero_z_gives_checker_share(self, fig4_session, monkeypatch):
        with monkeypatch.context() as patch:
            zero_shares(patch)
            fig4_session.run_key_initiation()
            assert fig4_session.nodes[1].state.subkey == KeyMaterial.zero()
        gk = fig4_session.run_session_agreement()
        assert gk != KeyMaterial.zero()
        assert gk == fig4_session.nodes[5].state.share

    def test_gk_is_xor_of_all_shares(self, fig4_session):
        keys = fig4_session.establish()
        assert keys.gk == fig4_session.gk_oracle()
        assert len(fig4_session.share_ledger()) == 18

    def test_all_parties_converge(self, fig4_session):
        keys = fig4_session.establish()
        for nid, st in all_members(fig4_session).items():
            assert st.session_key == keys.gk, nid

    def test_checker_verifies_everyone(self, fig4_session):
        fig4_session.establish()
        checker = fig4_session.nodes[5].state
        # the confirmation window closed at commit
        assert checker.expected_confirm is None

    def test_tampered_agreement_aborts(self, fig4_graph, suite):
        bad = TamperingTransport(lambda m: m.kind == MessageKind.AGREE_STEP1)
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=3,
                         checker=5, transport=bad)
        with pytest.raises(CheckerVerificationFailure, match=r"^checker rejected "
                           r"confirmations from: \[1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13, "
                           r"14, 15, 16, 17, 18\]$"):
            s.establish()
        assert s.epoch == 0
        assert bad.hits > 0

    @pytest.mark.parametrize("op, error, text", [
        ("establish", CheckerVerificationFailure, "checker rejected confirmations from: [9]"),
        ("periodic_global_rekey", RekeyFailure, "global rekey unconfirmed by [9]"),
    ])
    def test_one_bad_confirmation_names_its_sender(self, fig4_graph, suite, op, error, text):
        """Agreement and global rekey share one rule: every member but the
        checker confirms, and a rejected confirmation counts as missing."""
        on = []
        bad = TamperingTransport(lambda m: on and m.kind == MessageKind.AGREE_STEP3
                                 and m.sender == 9)
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=3,
                         checker=5, transport=bad)
        if op != "establish":
            s.establish()
        on.append(True)
        with pytest.raises(error) as info:
            getattr(s, op)()
        assert str(info.value) == text and bad.hits == 1

    def test_local_keys_held_by_both_sides(self, fig4_session):
        fig4_session.establish()
        z = fig4_session.nodes[1].state.subkey
        for j in (2, 3, 4):
            expect = z ^ fig4_session.nodes[j].state.share
            assert fig4_session.nodes[1].state.local_keys[j] == expect
            assert fig4_session.nodes[j].state.local_keys[j] == expect


class TestMemberJoin:
    def test_fig5_exact_refresh_set(self, fig4_graph, suite):
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5)
        s.establish()
        before = {n: st.share for n, st in all_members(s).items()}
        keys = s.member_join(19, {6})
        assert key_path(s.tree, 19) == [19, 6, 2, 1]
        after = {n: s.nodes[n].state.share for n in s.tree.members()}
        changed = {n for n in before if n in after and after[n] != before[n]}
        assert changed == {6, 2, 1}
        assert after[19] is not None
        assert keys.gk == s.gk_oracle()
        assert keys.epoch == 2

    def test_join_one_member_group(self, suite):
        graph = make_graph([(0, 1)])
        s = GroupSession(graph, 0, {0, 1}, suite, seed=9, checker=1)
        s.establish()
        keys = s.member_join(2, {0})
        assert keys.gk == s.gk_oracle()
        assert s.tree.members() == {0, 2}

    def test_join_rotates_master_key(self, fig4_session):
        fig4_session.establish()
        old = fig4_session.master_key
        fig4_session.member_join(19, {6})
        assert fig4_session.master_key != old
        for node in fig4_session.nodes.values():
            assert node.state.master_key == fig4_session.master_key

    def test_committed_join_leaves_the_old_graph_alone(self, fig4_session):
        s = fig4_session
        s.establish()
        held = s.graph
        before = {n: set(nbs) for n, nbs in held.items()}
        s.member_join(19, {6, 7})
        assert held == before
        assert s.graph[19] == {6, 7} and 19 in s.graph[6] and 19 in s.graph[7]

    def test_a_returning_member_joins_on_a_new_stream(self, fig4_session):
        # a second life of id 18 draws from its own stream, so its first
        # step-A nonce is not one its parent burned for the first life
        s = fig4_session
        s.establish()
        edges = set(s.graph[18])
        s.member_leave(18)
        keys = s.member_join(18, edges)
        assert 18 in s.members and keys.gk == s.gk_oracle()
        assert s.lives[18] == 2

    def test_a_retried_join_commits(self, fig4_graph, suite):
        lost = []

        def lose_first_step_c(msg):
            if msg.kind == MessageKind.JOIN_STEP_C and msg.sender == 18 and not lost:
                lost.append(msg)
            return msg in lost

        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5,
                         transport=LossyTransport(lose_first_step_c))
        s.establish()
        with pytest.raises(InitiationTimeout, match=r"edges: \[3\]"):
            s.member_join(19, {18})
        keys = s.member_join(19, {18})
        assert keys.gk == s.gk_oracle() and s.lives[19] == 2

    def test_duplicate_join_rejected(self, fig4_session):
        fig4_session.establish()
        with pytest.raises(ValueError):
            fig4_session.member_join(4, {1})

    def test_disconnected_join_aborts_cleanly(self, fig4_session):
        fig4_session.establish()
        snapshot_epoch = fig4_session.epoch
        gk = fig4_session.keys.gk
        with pytest.raises(Exception):
            fig4_session.member_join(42, set())
        assert fig4_session.epoch == snapshot_epoch
        assert fig4_session.keys.gk == gk
        assert 42 not in fig4_session.nodes


class TestMemberLeave:
    def test_leaf_leave_refreshes_ancestors_only(self, fig4_session):
        fig4_session.establish()
        before = {n: st.share for n, st in all_members(fig4_session).items()}
        keys = fig4_session.member_leave(14)
        after = {n: fig4_session.nodes[n].state.share for n in fig4_session.tree.members()}
        changed = {n for n in before if n in after and after[n] != before[n]}
        assert changed == {10, 6, 2, 1}
        assert keys.gk == fig4_session.gk_oracle()
        assert 14 not in fig4_session.members

    def test_checker_leave_reselects_and_rekeys(self, fig4_session):
        fig4_session.establish()
        old_gk = fig4_session.keys.gk
        old_checker_share = fig4_session.nodes[5].state.share
        keys = fig4_session.member_leave(5)
        assert fig4_session.checker in {2, 3, 4}
        assert fig4_session.tree.checker == fig4_session.checker
        assert keys.gk == fig4_session.gk_oracle()
        assert keys.gk != old_gk
        new_checker_share = fig4_session.nodes[fig4_session.checker].state.share
        assert new_checker_share != old_checker_share

    def test_root_leave_unsupported(self, fig4_session):
        fig4_session.establish()
        with pytest.raises(UnsupportedLeave):
            fig4_session.member_leave(1)

    def test_committed_leave_leaves_the_old_graph_alone(self, fig4_session):
        s = fig4_session
        s.establish()
        held = s.graph
        before = {n: set(nbs) for n, nbs in held.items()}
        s.member_leave(14)
        assert held == before
        assert s.graph == {n: nbs - {14} for n, nbs in before.items() if n != 14}
        assert s.graph[10] is not held[10] and s.graph[6] is held[6]

    def test_partitioned_members_drop_out(self, fig4_session):
        fig4_session.establish()
        keys = fig4_session.member_leave(6)  # strands 10, 11 and their leaves
        assert {10, 11, 14, 15, 16} & fig4_session.members == set()
        assert keys.gk == fig4_session.gk_oracle()


class TestPeriodicRekeys:
    def decrypt_rekey_share(self, session, suite, kind, key):
        msg = next(m for m in reversed(session.transport.messages) if m.kind == kind)
        from manetsec import wire
        pt = suite.decrypt(key, msg.payload)
        _, share, _ = wire.unpack(kind, pt)
        return share

    def test_global_rekey_algebra(self, fig4_session, suite):
        fig4_session.establish()
        gk_old = fig4_session.keys.gk
        keys = fig4_session.periodic_global_rekey()
        fresh = self.decrypt_rekey_share(fig4_session, suite,
                                         MessageKind.GLOBAL_REKEY, gk_old)
        assert keys.gk ^ gk_old == fresh
        assert keys.gk == fig4_session.gk_oracle()
        for st in all_members(fig4_session).values():
            assert st.session_key == keys.gk

    def test_local_rekey_algebra(self, fig4_session, suite):
        fig4_session.establish()
        lk_old = fig4_session.local_keys[2]
        lk_new = fig4_session.periodic_local_rekey(2)
        fresh = self.decrypt_rekey_share(fig4_session, suite,
                                         MessageKind.LOCAL_REKEY_STEP1, lk_old)
        assert lk_new ^ lk_old == fresh
        assert fig4_session.local_keys[2] == lk_new
        assert fig4_session.nodes[2].state.local_keys[2] == lk_new

    def test_a_superseded_local_key_leaves_no_copy(self, fig4_session):
        # the join refreshes every local key; no node keeps the one that
        # the local rekey replaced
        s = fig4_session
        s.establish()
        s.periodic_local_rekey(2)
        s.periodic_global_rekey()
        s.member_join(19, {18})
        assert stray_keys(s) == set()
        assert s.nodes[1].state.local_rekey_peer == {}

    def test_rekey_without_establishment(self, fig4_session):
        with pytest.raises(RekeyFailure):
            fig4_session.periodic_global_rekey()

    def test_local_rekey_requires_level1(self, fig4_session):
        fig4_session.establish()
        with pytest.raises(RekeyFailure):
            fig4_session.periodic_local_rekey(14)

    def test_demoted_member_loses_local_key(self, suite):
        # node 2 starts at level 1; once its direct link to the root goes the
        # re-layering demotes it and its pairwise key disappears on both sides
        graph = make_graph([(0, 1), (0, 2), (1, 2), (1, 3), (0, 9), (2, 4)])
        s = GroupSession(graph, 0, {0, 1, 2, 3, 4, 9}, suite, seed=8, checker=9)
        s.establish()
        assert 2 in s.tree.children[0]
        assert 2 in s.nodes[2].state.local_keys
        s.graph[0].discard(2)
        s.graph[2].discard(0)
        s.member_leave(4)  # any leave re-layers against the updated graph
        assert 2 not in s.tree.children[0]
        assert 2 not in s.nodes[2].state.local_keys
        assert 2 not in s.nodes[0].state.local_keys
        with pytest.raises(RekeyFailure):
            s.periodic_local_rekey(2)

    def test_tampered_global_rekey_retains_old_key(self, fig4_graph, suite):
        bad = TamperingTransport(lambda m: m.kind == MessageKind.GLOBAL_REKEY)
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=4,
                         checker=5, transport=bad)
        s.establish()
        gk_old = s.keys.gk
        epoch_old = s.epoch
        with pytest.raises(RekeyFailure, match=r"^global rekey unconfirmed by \[1, 2, 3, 4, 6, "
                           r"7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18\]$"):
            s.periodic_global_rekey()
        assert s.keys.gk == gk_old
        assert s.epoch == epoch_old
        for st in all_members(s).values():
            assert st.session_key == gk_old


class TestEpochInvariants:
    def test_epoch_strictly_increases(self, fig4_session):
        epochs = [fig4_session.establish().epoch]
        epochs.append(fig4_session.member_join(19, {6}).epoch)
        epochs.append(fig4_session.periodic_global_rekey().epoch)
        epochs.append(fig4_session.member_leave(19).epoch)
        lvl1 = fig4_session.tree.children[1][0]
        fig4_session.periodic_local_rekey(lvl1)
        epochs.append(fig4_session.epoch)
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
        assert epochs[0] == 1

    def test_oracle_holds_across_random_churn(self, suite):
        rng = random.Random(5)
        graph = make_graph([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6),
                            (4, 7), (5, 7), (0, 6), (1, 5)])
        s = GroupSession(graph, 0, set(range(8)), suite, seed=5)
        s.establish()
        next_id = 8
        for step in range(60):
            op = rng.random()
            try:
                if op < 0.3 and len(s.members) > 4:
                    s.member_leave(rng.choice(sorted(s.members - {0})))
                elif op < 0.6:
                    anchors = set(rng.sample(sorted(s.members), 2))
                    s.member_join(next_id, anchors)
                    next_id += 1
                elif op < 0.8:
                    s.periodic_global_rekey()
                else:
                    lvl1 = s.tree.children[0]
                    if lvl1:
                        s.periodic_local_rekey(rng.choice(lvl1))
            except (ProtocolAbort, Exception) as e:
                if not isinstance(e, ProtocolAbort) and "keytree" not in type(e).__module__:
                    raise
                continue
            assert s.keys.gk == s.gk_oracle(), step
            converged = {st.session_key for st in all_members(s).values()}
            assert len(converged) == 1


class TestReplayResistance:
    def test_replayed_messages_never_change_state(self, fig4_session, rng):
        fig4_session.establish()
        fig4_session.member_join(19, {6})
        fig4_session.periodic_global_rekey()
        msgs = fig4_session.transport.messages
        for _ in range(200):
            msg = msgs[rng.randrange(len(msgs))]
            targets = [t for t in fig4_session.transport.targets(msg, fig4_session.members)
                       if t in fig4_session.nodes]
            before = {t: fig4_session.nodes[t].state.fingerprint() for t in targets}
            for t in targets:
                out = fig4_session.nodes[t].step(msg)
                assert out == []
            after = {t: fig4_session.nodes[t].state.fingerprint() for t in targets}
            assert before == after

    def test_weakened_build_is_vulnerable(self, fig4_graph, suite):
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7,
                         checker=5, unsafe_skip_nonce_checks=True)
        s.establish()
        msg = next(m for m in s.transport.messages if m.kind == MessageKind.AUTH_STEP1)
        node = s.nodes[msg.receiver]
        before = node.state.fingerprint()
        out = node.step(msg)
        assert out and node.state.fingerprint() != before


class TestRobustness:
    def test_garbage_never_raises_or_moves_state(self, fig4_session, rng):
        # mutated frames: flipped ciphertext bits, relabeled kinds, foreign
        # ids; nodes drop them all without touching key state
        fig4_session.establish()
        fig4_session.member_join(19, {6})
        msgs = fig4_session.transport.messages
        kinds = list(MessageKind)
        for _ in range(400):
            base = msgs[rng.randrange(len(msgs))]
            mode = rng.randrange(3)
            payload = bytearray(base.payload or b"\x00")
            if mode == 0 and payload:
                pos = rng.randrange(len(payload) * 8)
                payload[pos // 8] ^= 1 << (pos % 8)
                mutated = ProtocolMessage(base.kind, base.sender, base.receiver,
                                          base.ids, bytes(payload))
            elif mode == 1:
                mutated = ProtocolMessage(kinds[rng.randrange(len(kinds))],
                                          base.sender, base.receiver, base.ids,
                                          base.payload)
            else:
                mutated = ProtocolMessage(base.kind, rng.randrange(50),
                                          base.receiver, base.ids, base.payload)
            for nid in list(fig4_session.nodes):
                node = fig4_session.nodes[nid]
                before = node.state.fingerprint()
                node.step(mutated)
                assert node.state.fingerprint() == before

    @pytest.mark.parametrize("weakened", [False, True])
    def test_max_nonce_frames_dropped(self, fig4_graph, suite, rng, weakened):
        # authentic frames whose nonce has no 64-bit +1 echo: node 2 would
        # answer AUTH_STEP1 from 6, checker 5 would answer AGREE_STEP1
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5,
                         unsafe_skip_nonce_checks=weakened)
        frames = {
            2: ProtocolMessage(MessageKind.AUTH_STEP1, 6, 2, (6, 2), suite.encrypt(
                s.master_key, pack(MessageKind.AUTH_STEP1, 6, 2, MAX_NONCE), rng)),
            5: ProtocolMessage(MessageKind.AGREE_STEP1, 1, BROADCAST, (1,), suite.encrypt(
                s.master_key, pack(MessageKind.AGREE_STEP1, 1, KeyMaterial.zero(), MAX_NONCE),
                rng)),
        }
        for receiver, msg in frames.items():
            node = s.nodes[receiver]
            before = node.state.fingerprint()
            assert node.step(msg) == []
            assert node.state.fingerprint() == before
            assert node.counters["nonce_mismatch"] == 1

    def test_join_request_counted_through_drop(self, fig4_session, monkeypatch):
        dropped = []
        original = ProtocolNode._drop

        def spy(node, counter):
            dropped.append(counter)
            return original(node, counter)

        monkeypatch.setattr(ProtocolNode, "_drop", spy)
        fig4_session.establish()
        fig4_session.member_join(19, {18})
        assert dropped.count("join_requests") == 18

    def test_handler_arity_matches_layout(self):
        # step() passes a sealed frame's opened fields as arguments, so a
        # layout that outgrew its handler would raise inside a node
        for kind, handler in _HANDLERS.items():
            params = inspect.signature(handler).parameters
            width = len(LAYOUTS[kind]) if kind in SEALED_KINDS else 0
            assert len(params) == 2 + width, kind.name

    # sha256 over (node, kind, len(output), sorted counters, fingerprint)
    # after every replay step below, pinned before step() became the one
    # place a sealed frame is opened: each frame meets the same drop counter.
    # Re-pinned when NodeState's five place fields became its `tree`; the
    # states hashed in the old field layout still give 2b1246974d97...
    # Re-pinned when `exchange_active` and `parent_channel_ready` were
    # deleted: hashed with them put back, derived from `pending_nonces`
    # ("up_echo" or "up_final" pending; "up_final" pending), the states
    # still give the old pin 620b3c7af55d...
    # Re-pinned when every ratchet began to commit where it is applied:
    # the code before that change, its states hashed without
    # `rekey_tentative`, without the members' `local_rekey_peer` entries
    # and with the root's entries cut to their nonce (none is pending),
    # gives this pin over the same replay; in its own layout it gave
    # 67458517f954...
    # Re-pinned when `exchange_family` was deleted (the step kind follows
    # the frame): the states before that change, hashed without
    # `exchange_family`, give this pin; in their own layout a0f713480938...
    REPLAY_SHA256 = "52c79c4e13c51a207697ccc84692a00ef7c9b8a00a58c2f1c653e0593b62a51f"
    REPLAY_TOTALS = {"integrity_failures": 2952, "nonce_mismatch": 86,
                     "unexpected": 3350, "join_requests": 85}

    def test_replayed_frames_pin_drop_counts(self, fig4_session):
        s = fig4_session
        s.establish()
        s.member_join(19, {18})
        s.periodic_global_rekey()
        s.periodic_local_rekey(2)
        s.member_leave(17)
        frames = list(s.transport.messages)
        assert len(frames) == 172
        h = hashlib.sha256()
        for msg in frames:
            flipped = msg if not msg.payload else dataclasses.replace(
                msg, payload=msg.payload[:-1] + bytes([msg.payload[-1] ^ 1]))
            for nid, node in sorted(s.nodes.items()):
                for form in (msg, flipped, dataclasses.replace(msg, receiver=nid),
                             dataclasses.replace(flipped, receiver=nid)):
                    out = node.step(form)
                    h.update(repr((nid, int(form.kind), len(out), sorted(node.counters.items()),
                                   node.state.fingerprint())).encode())
        totals = {c: sum(node.counters[c] for node in s.nodes.values())
                  for c in self.REPLAY_TOTALS}
        assert totals == self.REPLAY_TOTALS
        assert h.hexdigest() == self.REPLAY_SHA256


def count_calls(monkeypatch, cls, name, calls):
    """Replace cls.name by a wrapper that appends each call's arguments to `calls`."""
    original = getattr(cls, name)

    def spy(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, spy)


def ring_chord(n, chord):
    """The lossless benchmark topology: a ring with a chord from i to i+chord."""
    return make_graph([(i, (i + step) % n) for i in range(n) for step in (1, chord)])


class TestSharedOpen:
    """A sealed frame is opened once per key: the receivers of a broadcast
    that hold its key share one AES-GCM open and parse, while every receiver
    still runs step() and counts its own drops."""

    def test_no_open_is_lent_across_keys(self, fig4_session, monkeypatch):
        s = fig4_session
        s.establish()
        [frame] = s.nodes[1].begin_agreement()  # the root's z, sealed under the master key
        right, shared, wrong = (s.nodes[n] for n in (6, 7, 8))
        wrong.state.master_key = KeyMaterial(bytes(16))
        opens = []
        count_calls(monkeypatch, CipherSuite, "decrypt", opens)

        stale = right.state.pending_nonces["agree_root"]  # establish's
        right.step(frame)
        assert len(opens) == 1
        shared.step(frame)  # same key bytes: served the open
        assert len(opens) == 1
        fresh = right.state.pending_nonces["agree_root"]
        assert fresh != stale and shared.state.pending_nonces["agree_root"] == fresh

        before = wrong.state.checkpoint()
        assert wrong.step(frame) == []  # other key bytes: its own open, which fails
        assert len(opens) == 2
        assert wrong.counters["integrity_failures"] == 1
        assert wrong.state == before

        # the same payload under the same key as another kind opens again;
        # its plaintext is too long for an AUTH_STEP1, so it is an integrity drop
        relabeled = dataclasses.replace(frame, kind=MessageKind.AUTH_STEP1)
        third = s.nodes[9]
        third.step(frame)
        assert len(opens) == 3
        before = third.state.checkpoint()
        assert third.step(relabeled) == []
        assert len(opens) == 4
        assert third.counters == {"integrity_failures": 1, "nonce_mismatch": 0,
                                  "unexpected": 0, "join_requests": 0}
        assert third.state == before

    @pytest.mark.parametrize("kind, op, error", [
        (MessageKind.AGREE_STEP2, "establish", CheckerVerificationFailure),
        (MessageKind.GLOBAL_REKEY, "periodic_global_rekey", RekeyFailure),
    ])
    def test_a_tampered_broadcast_counts_at_every_receiver(self, fig4_graph, suite,
                                                          monkeypatch, kind, op, error):
        on = []
        bad = TamperingTransport(lambda m: on and m.kind == kind)
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=3,
                         checker=5, transport=bad)
        if op != "establish":
            s.establish()
        keys = s.keys
        failures = {n: node.counters["integrity_failures"] for n, node in s.nodes.items()}
        states = {n: node.state.fingerprint() for n, node in s.nodes.items()}
        opens = []
        count_calls(monkeypatch, CipherSuite, "decrypt", opens)
        on.append(True)
        with pytest.raises(error):
            getattr(s, op)()
        assert bad.hits == 1
        receivers = set(s.nodes) - {s.checker}
        assert {n: node.counters["integrity_failures"] - failures[n]
                for n, node in s.nodes.items()} == {n: int(n in receivers) for n in s.nodes}
        # the failure was opened once and served to the other receivers
        last = {n: s.transport.delivered[n][-1] for n in receivers}
        [payload] = {m.payload for m in last.values()}
        assert all(m.kind == kind for m in last.values())
        assert sum(ct == payload for _, ct in opens) == 1
        # the epoch rolled back as it always has
        assert s.keys is keys and s.epoch == (0 if keys is None else keys.epoch)
        if op != "establish":
            assert {n: node.state.fingerprint() for n, node in s.nodes.items()} == states
            assert all(node.state.session_key == keys.gk for node in s.nodes.values())
        else:
            assert all(node.state.session_key is None for node in s.nodes.values())

    @pytest.mark.parametrize("epoch", ["establish", "periodic_global_rekey",
                                       "periodic_local_rekey", "member_join", "member_leave"])
    def test_one_open_per_sealed_frame(self, suite, monkeypatch, epoch):
        """On a lossless ring+chord group every receiver of a frame holds its
        key, so each epoch kind opens exactly as many frames as it seals,
        and step() still runs once per delivery. The checker and the members
        derive one confirmation digest between them, and a join or a leave
        rolls the master key once."""
        n = 50
        s = GroupSession(ring_chord(n, 17), 0, set(range(n)), suite, seed=11)
        if epoch != "establish":
            s.establish()
        args = {"periodic_local_rekey": (s.tree.children[s.root][0],),
                "member_join": (n, {3, 20}), "member_leave": (25,)}.get(epoch, ())
        seals, opens, steps, digests, derived = [], [], [], [], []
        count_calls(monkeypatch, CipherSuite, "encrypt", seals)
        count_calls(monkeypatch, CipherSuite, "decrypt", opens)
        count_calls(monkeypatch, ProtocolNode, "step", steps)
        count_calls(monkeypatch, CipherSuite, "digest", digests)
        count_calls(monkeypatch, CipherSuite, "derive_key", derived)
        delivered = sum(map(len, s.transport.delivered.values()))
        sent = len(s.transport.messages)
        getattr(s, epoch)(*args)
        shared = [m for m in s.transport.messages[sent:]
                  if m.receiver == BROADCAST and m.kind in SEALED_KINDS]
        assert shared or epoch == "periodic_local_rekey"
        assert all(node.memo is s.memo for node in s.nodes.values())
        assert len(seals) > 0 and len(opens) == len(seals), epoch
        assert len(steps) == sum(map(len, s.transport.delivered.values())) - delivered, epoch
        # a local rekey's two digests are the member's proof and the root's check
        assert len(digests) == (2 if epoch == "periodic_local_rekey" else 1), epoch
        rolls = [parts for parts in derived if parts[0] == b"master"]
        assert len(rolls) == (epoch in ("member_join", "member_leave")), epoch


class DivergingTransport(Transport):
    """Lossless, but hands `victim` each frame of `kind` through `diverge`,
    which may change the victim's state or the frame it gets."""

    def __init__(self):
        super().__init__()
        self.kind = self.victim = self.diverge = None

    def deliver(self, msg, members):
        return [(t, self.diverge(m) if (t, m.kind) == (self.victim, self.kind) else m)
                for t, m in super().deliver(msg, members)]


def reference_derivation(suite, entry, inputs):
    """What one node derives alone from `inputs`, by hand."""
    if entry == "open":
        kind, key, payload = inputs
        try:
            return wire.unpack(kind, suite.decrypt(key, payload))
        except (IntegrityFailure, wire.WireError):
            return None
    if entry == "confirm":
        cid, nonce, carrier, delta = inputs
        key = carrier ^ delta
        return key, suite.digest(pack(MessageKind.AGREE_STEP3, cid, nonce + 1, key))
    old, roster, salt = inputs
    return derive_master_key(suite, old, roster, salt.data)


def shared_derivation(node, entry, inputs):
    """What `node` derives from `inputs` through the session's memo."""
    if entry == "open":
        return node._open(*inputs)
    if entry == "confirm":
        return node._confirmation(*inputs)
    node.state.master_key = inputs[0]
    return node._roll(*inputs[1:])


class TestSharedDerivations:
    """The values a broadcast's receivers derive alike (an open, a session
    key with its confirmation digest, a master-key roll) are shared through
    the session's one memo, and never lent to a node whose inputs differ."""

    @pytest.mark.parametrize("entry, changed", [
        *(("open", i) for i in range(3)),
        *(("confirm", i) for i in range(4)),
        *(("roll", i) for i in range(3)),
    ])
    def test_no_entry_is_lent_across_inputs(self, fig4_session, suite, entry, changed):
        s = fig4_session
        s.establish()
        [frame] = s.nodes[1].begin_agreement()
        [other] = s.nodes[1].begin_agreement()
        k = [KeyMaterial(bytes([i]) * 16) for i in range(1, 5)]
        base, varied = {
            "open": ((frame.kind, s.master_key, frame.payload),
                     (MessageKind.AUTH_STEP1, k[0], other.payload)),
            "confirm": ((5, 1000, k[0], k[1]), (6, 1001, k[2], k[3])),
            "roll": ((k[0], membership(3, [1, 2]), k[1]), (k[2], membership(4, [1]), k[3])),
        }[entry]
        inputs = base[:changed] + (varied[changed],) + base[changed + 1:]
        first, second = s.nodes[6], s.nodes[7]
        assert first.memo is second.memo
        want = reference_derivation(suite, entry, base)
        assert shared_derivation(first, entry, base) == want
        assert shared_derivation(second, entry, base) == want
        own = reference_derivation(suite, entry, inputs)
        assert own != want
        assert shared_derivation(second, entry, inputs) == own

    @pytest.mark.parametrize("op, kind, error", [
        ("member_join", MessageKind.AGREE_STEP2, CheckerVerificationFailure),
        ("periodic_global_rekey", MessageKind.GLOBAL_REKEY, RekeyFailure),
    ])
    def test_a_diverging_member_confirms_its_own_key(self, fig4_graph, suite, monkeypatch,
                                                     op, kind, error):
        """A member whose z differs from the others' on AGREE_STEP2, or whose
        GK is stale on GLOBAL_REKEY (a rekey sealed under its own GK),
        derives its own key and digest and lands in the checker's
        confirm_failures; the epoch aborts and rolls every node back."""
        t = DivergingTransport()
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5, transport=t)
        s.establish()
        victim = s.nodes[12].state
        carrier = KeyMaterial(bytes([0x5A]) * 16)
        if kind == MessageKind.AGREE_STEP2:
            def diverge(msg):
                victim.subkey = carrier
                return msg
        else:
            victim.session_key = carrier
            gk = s.keys.gk

            def diverge(msg):
                pt = suite.decrypt(gk, msg.payload)
                return dataclasses.replace(msg, payload=suite.encrypt(carrier, pt, random.Random(0)))
        t.kind, t.victim, t.diverge = kind, 12, diverge
        args = (19, {6}) if op == "member_join" else ()
        live = {n: node.state for n, node in s.nodes.items()}
        before = {n: st.checkpoint() for n, st in live.items()}
        keys, sent = s.keys, len(t.messages)
        digests = []
        count_calls(monkeypatch, CipherSuite, "digest", digests)
        with pytest.raises(error):
            getattr(s, op)(*args)

        # the shared digest, the victim's own, and the shared one again for
        # the members after it in the pump (one entry per derivation)
        assert len(digests) == 3
        checker = live[5]
        assert checker.confirm_failures == {12}
        [sealed] = [m.payload for m in t.messages[sent:] if m.kind == kind]
        fields = wire.unpack(kind, suite.decrypt(
            live[1].master_key if kind == MessageKind.AGREE_STEP2 else keys.gk, sealed))
        delta, nonce = fields[1], fields[-1]
        assert victim.session_key == carrier ^ delta != checker.session_key
        confirms = {m.sender: m.payload for m in t.messages[sent:]
                    if m.kind == MessageKind.AGREE_STEP3}
        assert confirms.pop(12) == suite.digest(pack(MessageKind.AGREE_STEP3, 5, nonce + 1,
                                                     victim.session_key))
        assert set(confirms.values()) == {checker.expected_confirm}
        assert all(live[n].session_key == checker.session_key for n in confirms if n in live)
        # every checkpoint is back
        assert s.keys is keys and set(s.nodes) == set(live)
        assert all(s.nodes[n].state is not live[n] for n in live)
        assert {n: node.state for n, node in s.nodes.items()} == before

    @pytest.mark.parametrize("field", ["master_key", "pending_membership"])
    def test_a_member_with_another_master_or_roster_rolls_its_own(self, fig4_graph, suite,
                                                                   monkeypatch, field):
        """On a leave, a member holding another master key or roster when its
        MASTER_REKEY arrives rolls its own key; every other member shares one
        roll, and the epoch aborts and rolls every node back."""
        t = DivergingTransport()
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5, transport=t)
        s.establish()
        victim = s.nodes[18].state
        other = {"master_key": KeyMaterial(bytes([0x3C]) * 16),
                 "pending_membership": membership(99, [1, 18])}[field]

        def diverge(msg):
            setattr(victim, field, other)
            return msg
        t.kind, t.victim, t.diverge = MessageKind.MASTER_REKEY, 18, diverge
        live = {n: node.state for n, node in s.nodes.items() if n != 14}
        before = {n: node.state.checkpoint() for n, node in s.nodes.items()}
        keys = s.keys
        derived = []
        count_calls(monkeypatch, CipherSuite, "derive_key", derived)
        with pytest.raises(ProtocolAbort):
            s.member_leave(14)

        rolls = {parts for parts in derived if parts[0] == b"master"}
        assert len(rolls) == 2
        [mine] = [parts for parts in rolls if suite.derive_key(*parts) == victim.master_key]
        [theirs] = rolls - {mine}
        shared = live[1].master_key
        assert suite.derive_key(*theirs) == shared != victim.master_key
        assert mine[1] == other.data if field == "master_key" else mine[2:4] == other
        assert all(st.master_key is shared for n, st in live.items() if n != 18)
        assert s.keys is keys
        assert {n: node.state for n, node in s.nodes.items()} == before


class TestHeaderBinding:
    @pytest.mark.xfail(strict=True, reason=(
        "a frame's header is not authenticated: AES-GCM seals with no associated "
        "data and AUTH_STEP1 and JOIN_STEP_A share a layout, so the relabeled "
        "frame opens under the same key and is answered (ROADMAP open item)"))
    def test_a_relabeled_exchange_frame_is_dropped(self, fig4_session):
        s = fig4_session
        s.establish()
        [frame] = s.nodes[6].begin_exchange(MessageKind.AUTH_STEP1, set())
        assert frame.receiver == 2
        relabeled = dataclasses.replace(frame, kind=MessageKind.JOIN_STEP_A)
        parent = s.nodes[2]
        drops = sum(parent.counters.values())
        assert parent.step(relabeled) == []
        assert sum(parent.counters.values()) == drops + 1


class TestTranscriptHygiene:
    def test_no_cleartext_secrets_quick(self, fig4_session):
        from manetsec.adversary import scan_for_secrets
        fig4_session.establish()
        fig4_session.member_join(19, {6})
        fig4_session.member_leave(19)
        fig4_session.periodic_global_rekey()
        secrets = fig4_session.current_secrets()
        hits = scan_for_secrets(fig4_session.transport.transcript, secrets)
        assert hits == 0

    def test_transcript_is_derived_from_the_frame_log(self, fig4_session):
        fig4_session.establish()
        transport = fig4_session.transport
        assert set(vars(transport)) == {"messages", "delivered"}
        assert transport.transcript == b"".join(m.to_bytes() for m in transport.messages)

    def test_channel_alters_and_loses_after_the_log(self):
        sent = ProtocolMessage(MessageKind.AUTH_STEP1, 1, 3, (1, 3), b"as sent")
        lost = ProtocolMessage(MessageKind.AGREE_STEP1, 2, BROADCAST, (2,), b"lost")
        altered = dataclasses.replace(sent, payload=b"altered")

        class Faulty(Transport):
            def channel(self, msg):
                return {sent: altered, lost: None}.get(msg, msg)

        transport = Faulty()
        assert transport.deliver(sent, {1, 2, 3}) == [(3, altered)]
        assert transport.deliver(lost, {1, 2, 3}) == []
        assert transport.messages == [sent, lost]
        assert transport.delivered == {3: [altered]}
        assert transport.transcript == sent.to_bytes() + lost.to_bytes()

    def test_wire_fidelity(self, fig4_session):
        fig4_session.establish()
        for msg in fig4_session.transport.messages:
            assert ProtocolMessage.from_bytes(msg.to_bytes()) == msg


class TestStoredOnce:
    """Each group fact has one stored place; the session's other names for
    it are read-only views, so a second copy cannot drift out of step."""

    def test_session_stores_no_copy(self, fig4_session):
        fig4_session.establish()
        assert set(vars(fig4_session)) == {
            "suite", "seed", "graph", "transport", "rng", "tree",
            "unsafe_skip_nonce_checks", "lives", "memo", "nodes", "keys", "touched"}
        assert tuple(f.name for f in dataclasses.fields(SessionKeys)) == ("gk", "epoch")
        for name in ("root", "checker", "members", "master_key", "epoch", "local_keys"):
            assert isinstance(inspect.getattr_static(GroupSession, name), property), name

    def test_views_read_the_stored_facts(self, fig4_session):
        s = fig4_session
        s.establish()
        root = s.nodes[1].state
        assert s.root == s.tree.root == 1
        assert s.local_keys is root.local_keys and set(s.local_keys) == {2, 3, 4}
        assert s.master_key is root.master_key


def full_state():
    """A NodeState with every field set and every container non-empty."""
    k = [KeyMaterial(bytes([i]) * 16) for i in range(1, 11)]
    return NodeState(
        my_id=3, master_key=k[0], tree=KeyTree(1, {3: 1, 7: 3, 8: 1}, 2), share=k[1],
        intermediate=k[2], subkey=k[3], session_key=k[4], local_keys={3: k[5]},
        edge_keys={1: k[6], 7: k[7]}, children_received={7: (k[8], k[9])},
        pending_nonces={"up_echo": 11}, seen_nonces={1: {5, 9}},
        pending_children={7},
        pending_membership=membership(5, (1, 3, 7)),
        expected_confirm=b"digest", confirmations={1}, confirm_failures={7},
        local_rekey_peer={1: 12})


def altered(value):
    """A different value of the same shape; containers change one entry."""
    if isinstance(value, KeyMaterial):
        return value ^ KeyMaterial(b"\x80" * len(value.data))
    if isinstance(value, KeyTree):  # one more leaf below the root
        return KeyTree(value.root, {**value.parent, max(value.level) + 1: value.root},
                       value.checker)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (str, bytes)):
        return value * 2
    if isinstance(value, tuple):
        return value[:-1] + (altered(value[-1]),) if value else (1,)
    if isinstance(value, dict):
        first = next(iter(value), None)
        return {k: altered(v) if k == first else v for k, v in value.items()} or {1: 1}
    if isinstance(value, set):
        return value | {max(value, default=0) + 1}
    if value is None:
        return 1
    raise TypeError(f"no alteration for {type(value).__name__}")


class TestNodeStateDeclaration:
    """fingerprint() and checkpoint() follow the dataclass declaration, so a
    new or renamed field cannot fall out of the replay and rollback checks."""

    def test_key_material_lists_every_held_key(self):
        st = full_state()
        assert len(held_keys([getattr(st, f.name) for f in dataclasses.fields(NodeState)])) == 10
        assert unlisted_keys(st) == set()

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(NodeState)])
    def test_every_field_moves_the_fingerprint(self, name):
        st = full_state()
        changed = dataclasses.replace(st, **{name: altered(getattr(st, name))})
        assert changed.fingerprint() != st.fingerprint()

    def test_fingerprint_ignores_container_order(self):
        st = dataclasses.replace(full_state(), confirmations={8, 16})
        tree = st.tree
        shuffled = dataclasses.replace(
            st, edge_keys=dict(reversed(st.edge_keys.items())), confirmations={16, 8},
            tree=KeyTree(tree.root, {8: 1, 3: 1, 7: 3}, tree.checker))
        assert list(shuffled.confirmations) != list(st.confirmations)
        assert list(shuffled.tree.parent) != list(tree.parent)
        assert shuffled.fingerprint() == st.fingerprint()

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(NodeState)
                                      if isinstance(getattr(full_state(), f.name), (dict, set))])
    def test_checkpoint_isolates_every_container_but_seen_nonces(self, name):
        st = full_state()
        snap = st.checkpoint()
        assert snap == st and snap.fingerprint() == st.fingerprint()
        before = snap.fingerprint()
        getattr(st, name).clear()
        if name == "seen_nonces":
            assert snap.seen_nonces is st.seen_nonces  # burned nonces stay burned
        else:
            assert snap.fingerprint() == before

    def test_checkpoint_shares_all_but_the_copied_containers(self):
        st = full_state()
        snap = st.checkpoint()
        assert type(snap) is NodeState
        copied = {f.name for f in dataclasses.fields(NodeState)
                  if isinstance(getattr(st, f.name), (dict, set)) and f.name != "seen_nonces"}
        assert set(_COPIED) == copied
        for f in dataclasses.fields(NodeState):
            live, kept = getattr(st, f.name), getattr(snap, f.name)
            if f.name in copied:
                assert kept is not live and kept == live, f.name
            else:  # keys, the tree and seen_nonces included
                assert kept is live, f.name
        assert (snap.role, snap.parent_id, snap.children) == (st.role, st.parent_id, st.children)


class RateDropTransport(Transport):
    """Drops each frame with probability `rate`, drawn from its own RNG."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)
        self.rate = 0.0

    def channel(self, msg):
        return None if self.rng.random() < self.rate else msg


def tree_dump(tree):
    """dump_tree plus every child list: the whole tree, by value."""
    return dump_tree(tree) + "".join(f"{n}:{tree.children[n]}\n" for n in sorted(tree.children))


def configured_place(tree, nid):
    """(role, parent, children) as the session once wrote them into each node
    after every join and leave: the reference the derived place must match."""
    if nid == tree.checker:
        return "checker", tree.root, ()
    role = "root" if nid == tree.root else "member"
    return role, tree.parent.get(nid), tuple(sorted(tree.children.get(nid, ())))


def lossy_session(seed, n, rate):
    """A session on a random geometric graph whose transport loses each frame
    with probability `rate`; None when the draw gives no usable group."""
    graph = random_geometric(n, 0.5, random.Random(seed))
    members = set(bfs_parents(graph, 0))
    if len(members) < 3:
        return None
    transport = RateDropTransport(seed)
    transport.rate = rate
    try:
        return GroupSession(graph, 0, members, CipherSuite(), seed=seed, transport=transport)
    except TreeError:
        return None  # the drawn checker cuts the root off part of the group


def churn_attempt(s, kind, pick, joiner):
    """One epoch attempt: establish until that commits, else the drawn op,
    which may be a re-establish. False when the op has no target and nothing ran."""
    if s.keys is None or kind == "establish":
        s.establish()
    elif kind == "leave":
        candidates = sorted(s.members - {s.root})
        if len(candidates) < 2:
            return False
        s.member_leave(candidates[pick % len(candidates)])
    elif kind == "join":
        pool = sorted(s.members)
        s.member_join(joiner, {pool[(pick + k * 7) % len(pool)] for k in range(1 + pick % 3)})
    elif kind == "global":
        s.periodic_global_rekey()
    else:
        level1 = s.tree.children[s.root]
        if not level1:
            return False
        s.periodic_local_rekey(level1[pick % len(level1)])
    return True


CHURN = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 14),
             rate=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
             ops=st.lists(st.tuples(st.sampled_from(["establish", "leave", "join", "global",
                                                     "local"]),
                                    st.integers(0, 2**16)), min_size=1, max_size=15))


def rollback_view(session):
    """Per-node fingerprint without the anti-replay memory, and that memory."""
    return ({n: dataclasses.replace(node.state, seen_nonces={}).fingerprint()
             for n, node in session.nodes.items()},
            {n: {p: set(v) for p, v in node.state.seen_nonces.items()}
             for n, node in session.nodes.items()})


def record_spy(on_record):
    """A `GroupSession._touch` that calls `on_record(session, node)` after
    each first-touch record, for use with `mock.patch.object`."""
    original = GroupSession._touch

    def touch(self, nid):
        fresh = self.touched is not None and self.nodes[nid].record is None
        node = original(self, nid)
        if fresh:
            on_record(self, node)
        return node
    return touch


class TestRollback:
    def test_aborted_leave_keeps_the_leaver(self, fig4_graph, suite):
        lost = {MessageKind.MASTER_REKEY}
        s = GroupSession(fig4_graph, 1, set(range(1, 19)), suite, seed=7, checker=5,
                         transport=LossyTransport(lambda m: m.kind in lost))
        s.establish()
        before = {n: node.state.fingerprint() for n, node in s.nodes.items()}
        with pytest.raises(RekeyFailure):
            s.member_leave(14)
        assert 14 in s.members and 14 in s.nodes
        assert set(s.nodes) == s.members
        assert s.nodes[14].state.fingerprint() == before[14]
        keys = s.periodic_global_rekey()  # 14 still confirms
        assert keys.gk == s.gk_oracle()
        with pytest.raises(RekeyFailure):  # a retry aborts again, cleanly
            s.member_leave(14)
        lost.clear()
        keys = s.member_leave(14)
        assert 14 not in s.members and set(s.nodes) == s.members
        assert keys.gk == s.gk_oracle()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**CHURN)
    def test_rollback_invariants_under_churn_and_loss(self, seed, n, rate, ops):
        s = lossy_session(seed, n, rate)
        if s is None:
            return
        transport = s.transport
        next_id = n
        # establish runs under the same loss; until it commits, every op
        # retries it instead
        for kind, pick in [("establish", 0)] + ops:
            nodes_before, members_before = set(s.nodes), set(s.members)
            views_before = (s.tree, s.keys, s.checker, s.epoch, s.master_key)
            tree_before = tree_dump(s.tree)
            graph_before = {v: set(nbs) for v, nbs in s.graph.items()}
            prints_before, seen_before = rollback_view(s)
            logged = {t: len(log) for t, log in transport.delivered.items()}
            try:
                if not churn_attempt(s, kind, pick, next_id):
                    continue
            except (ProtocolAbort, TreeError):
                assert set(s.nodes) == nodes_before
                assert s.members == members_before
                assert (s.tree, s.keys, s.checker, s.epoch, s.master_key) == views_before
                # the tree is kept by reference, so only a dump shows an
                # in-place change to it
                assert tree_dump(s.tree) == tree_before
                assert s.graph == graph_before
                prints_after, seen_after = rollback_view(s)
                assert prints_after == prints_before
                for nid, seen in seen_before.items():
                    for peer, values in seen.items():
                        assert values <= seen_after[nid].get(peer, set())
                # the nonces burned during the aborted epoch stay burned:
                # replaying what each node received in it moves nothing
                for t, log in transport.delivered.items():
                    if t in s.nodes:
                        node = s.nodes[t]
                        for msg in log[logged.get(t, 0):]:
                            before = node.state.fingerprint()
                            assert node.step(msg) == []
                            assert node.state.fingerprint() == before
                assert stray_keys(s) == set()
                continue
            assert stray_keys(s) == set()
            next_id += next_id in s.nodes
            assert set(s.nodes) == s.members
            assert s.epoch == views_before[3] + 1 == s.keys.epoch
            gk = s.gk_oracle()
            assert all(node.state.session_key == gk for node in s.nodes.values())
            # a join rolls the master key once for all, which relies on this
            assert all(node.state.master_key == s.master_key for node in s.nodes.values())

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**CHURN)
    def test_place_follows_the_tree_under_churn_and_loss(self, seed, n, rate, ops):
        """Every node reads its role, parent and children from the session's
        tree after each attempt; after an abort, from the restored tree. No
        node holds a key outside its `key_material()`."""
        s = lossy_session(seed, n, rate)
        if s is None:
            return
        next_id = n
        for kind, pick in [("establish", 0)] + ops:
            try:
                churn_attempt(s, kind, pick, next_id)
            except (ProtocolAbort, TreeError):
                pass
            next_id += next_id in s.nodes
            for nid, node in s.nodes.items():
                st = node.state
                assert st.tree is s.tree
                assert (st.role, st.parent_id, tuple(st.children)) == configured_place(s.tree, nid)
            assert stray_keys(s) == set()

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(**CHURN)
    def test_no_recorded_container_changes(self, seed, n, rate, ops):
        """Every container a first-touch record holds keeps its contents
        through the attempt, committed or aborted: a change in place that
        skipped `ProtocolNode._own` would write through into the record
        even when no abort reads it. A node the attempt never recorded is
        never written either."""
        s = lossy_session(seed, n, rate)
        if s is None:
            return
        records = []

        def keep(_, node):
            records.append((node.record, {name: node.record[name].copy() for name in _COPIED}))

        next_id = n
        with mock.patch.object(GroupSession, "_touch", record_spy(keep)):
            for kind, pick in [("establish", 0)] + ops:
                records.clear()
                prints = {nid: node.state.fingerprint() for nid, node in s.nodes.items()}
                try:
                    churn_attempt(s, kind, pick, next_id)
                except (ProtocolAbort, TreeError):
                    pass
                next_id += next_id in s.nodes
                for record, contents in records:
                    assert {name: record[name] for name in _COPIED} == contents
                touched = {record["my_id"] for record, _ in records}
                for nid, node in s.nodes.items():
                    if nid not in touched and nid in prints:
                        assert node.state.fingerprint() == prints[nid], nid


def left_exchange(state):
    """True when `state` still holds a nonce of an exchange towards its
    parent ("up_echo", "up_final") or from a child ("down_echo:<id>",
    "down_seen:<id>")."""
    return any(k in ("up_echo", "up_final") or k.startswith(("down_echo:", "down_seen:"))
               for k in state.pending_nonces)


class TestLeftExchangeState:
    """A committed epoch can leave the checker's exchange with the root
    half done: when one of its frames is lost, nothing waits for it, so the
    checker keeps "up_echo" or the root "down_echo:<checker>" and
    "down_seen:<checker>" into later epochs (CHANGES.md FOUND 73). None of
    those nonces makes a frame a node already received acceptable again."""

    # the 300 drawn sessions leave such state after about 100 commits, and
    # this example after its re-establish and its join
    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @example(seed=774545789, n=5, rate=0.05,
             ops=[("local", 26539), ("establish", 60850), ("join", 38763), ("leave", 30013),
                  ("establish", 28482), ("join", 35960), ("establish", 31051),
                  ("local", 22292), ("local", 56340), ("establish", 10844)])
    @given(**dict(CHURN, rate=st.sampled_from([0.05, 0.2])))   # loss leaves state behind
    def test_received_frames_stay_spent_after_a_commit(self, seed, n, rate, ops):
        s = lossy_session(seed, n, rate)
        if s is None:
            return
        next_id = n
        for kind, pick in [("establish", 0)] + ops:
            try:
                if not churn_attempt(s, kind, pick, next_id):
                    continue
            except (ProtocolAbort, TreeError):
                continue
            next_id += next_id in s.nodes
            if not any(left_exchange(node.state) for node in s.nodes.values()):
                continue
            for t, log in s.transport.delivered.items():
                if t in s.nodes:
                    for msg in log:
                        assert not replay_moves_state(s, msg, [t]), (t, msg.kind)


class TestFirstTouch:
    """An epoch records a node at its first touch and copies a container at
    its first change, so its cost follows the nodes it touches, not N."""

    @pytest.mark.parametrize("n", [50, 800])
    def test_records_per_epoch_kind(self, suite, n):
        s = GroupSession(ring_chord(n, 17), 0, set(range(n)), suite, seed=11)
        assert (s.root, s.checker) == (0, n - 1)
        recorded = []
        checkpoints = []
        with mock.patch.object(GroupSession, "_touch",
                               record_spy(lambda _, node: recorded.append(node.state.my_id))), \
                mock.patch.object(NodeState, "checkpoint",
                                  lambda st: checkpoints.append(st.my_id)):
            counts = {}
            for label, op, args in [
                    ("establish", "establish", ()),
                    ("local", "periodic_local_rekey", (1,)),
                    ("global", "periodic_global_rekey", ()),
                    ("join", "member_join", (n, {3, 20})),
                    ("leave", "member_leave", (25,)),
                    ("checker leave", "member_leave", (n - 1,))]:
                recorded.clear()
                getattr(s, op)(*args)
                assert len(set(recorded)) == len(recorded), label
                counts[label] = len(recorded)
                if label == "local":  # the member and the root: the checker's window is closed
                    assert recorded == [1, 0]
        assert counts == {"establish": n, "local": 2, "global": n,
                          "join": n + 1,   # the joiner included
                          "leave": n,      # n + 1 members, less the leaver
                          "checker leave": n - 1}
        assert checkpoints == []  # no epoch copies a whole state


class TestByteIdentity:
    # digests taken from the deepcopy-rollback implementation; any change
    # to the frames a fixed-seed session sends shows here
    TRANSCRIPT_SHA256 = "30d30e7687be2ac2e788c136cfb9ee6c3ab9469e4a81065793db428c19dbe97e"
    GKS = ["e3cdc2e33fc82e925f6d2ccbec8596fd", "8136282bb2a644abc7d28d0a9fa6a108",
           "4691a99ff584f4cb617d81ed63613eb9", "c65d4221d25627f3e376e1c23140d110",
           "9c7613d85e0f8e0d7f9d477f37379ea4", "9c7613d85e0f8e0d7f9d477f37379ea4"]

    def test_fixed_seed_session_bytes(self, fig4_session):
        s = fig4_session
        gks = [s.establish().gk, s.member_join(19, {6, 7}).gk,
               s.member_leave(14).gk,   # leaf leave
               s.member_leave(5).gk,    # checker leave
               s.periodic_global_rekey().gk]
        s.periodic_local_rekey(s.tree.children[1][0])
        gks.append(s.keys.gk)
        assert [gk.data.hex() for gk in gks] == self.GKS
        assert hashlib.sha256(s.transport.transcript).hexdigest() == self.TRANSCRIPT_SHA256


class TestMasterKeyRoll:
    # derive_master_key(suite, bytes(range(16)), membership(7, [9, 2**32 - 1, 3]), salt)
    # unsalted and with salt b"\xa5" * 16, and for epoch 0 with an empty roster
    PINNED = {(7, b""): "4b5b82545cc1eff4ae93e974a567296e",
              (7, b"\xa5" * 16): "ccf05205828e2db82e4888e905c3ee84",
              (0, b""): "0a4025aa0a013779b8f1f3fca7814203"}

    @staticmethod
    def reference(old, epoch, ids, salt):
        """SHA-256 over a zero counter and the length-prefixed parts, by hand."""
        roster = b"".join(struct.pack(">I", i) for i in sorted(ids))
        parts = [b"master", old, struct.pack(">Q", epoch), roster, salt]
        block = bytes(4) + b"".join(struct.pack(">I", len(p)) + p for p in parts)
        return hashlib.sha256(block).digest()[:16]

    def test_known_answers(self, suite):
        old = KeyMaterial(bytes(range(16)))
        cases = {0: [], 7: [9, 2**32 - 1, 3], 2**64 - 1: [1000, 5, 4, 1]}
        for epoch, ids in cases.items():
            roster = membership(epoch, ids)
            assert roster == (struct.pack(">Q", epoch),
                              b"".join(struct.pack(">I", i) for i in sorted(ids)))
            assert membership(epoch, dict.fromkeys(reversed(ids))) == roster
            for salt in (b"", b"\xa5" * 16):
                key = derive_master_key(suite, old, roster, salt)
                assert key.data == self.reference(old.data, epoch, ids, salt)
                if (epoch, salt) in self.PINNED:
                    assert key.data.hex() == self.PINNED[epoch, salt]

    def test_one_roll_per_join_and_one_per_leave(self, suite, monkeypatch):
        """Every holder of the master key rolls it over one roster and salt,
        so the session's nodes share one derivation per join and per leave."""
        n = 40
        graph = make_graph([(i, (i + step) % n) for i in range(n) for step in (1, 7)])
        s = GroupSession(graph, 0, set(range(n)), suite, seed=5)
        s.establish()
        derive = CipherSuite.derive_key
        calls = []

        def spy(self, *parts):
            if parts[0] == b"master":
                calls.append(parts)
            return derive(self, *parts)

        monkeypatch.setattr(CipherSuite, "derive_key", spy)

        def rolls(op, *args):
            calls.clear()
            op(*args)
            # every derivation in the epoch reads the one packed roster
            assert len({(id(c[2]), id(c[3])) for c in calls}) == 1
            return len(calls)

        assert rolls(s.member_join, n, {3, 9}) == 1
        assert rolls(s.member_leave, 17) == 1
        assert rolls(s.member_leave, s.checker) == 1
