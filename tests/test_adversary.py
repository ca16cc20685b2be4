import hashlib
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from manetsec import adversary, crypto, sim, wire
from manetsec.adversary import (
    backward_secrecy_candidates,
    broadcasts_since,
    candidate_group_keys,
    capture_knowledge,
    forward_secrecy_candidates,
    last_broadcasts,
    replay_once,
    run_security_suite,
    scan_for_secrets,
)
from manetsec.crypto import IntegrityFailure, KeyMaterial
from manetsec.esom import SomConfig
from manetsec.protocol import GroupSession
from manetsec.wire import MessageKind

from conftest import make_graph, scan_reference


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
        cands = candidate_group_keys(suite, know.keys,
                                     broadcasts_since(churn_session.transport.messages, 0))
        assert churn_session.keys.gk.data in cands

    def test_oracle_with_stolen_master_succeeds(self, churn_session, suite):
        know = capture_knowledge(churn_session, 4)
        mark = len(churn_session.transport.messages)
        keys = churn_session.member_leave(4)
        post = broadcasts_since(churn_session.transport.messages, mark)
        stolen = know.keys + [churn_session.master_key]
        cands = candidate_group_keys(suite, stolen, know.delivered + post)
        assert keys.gk.data in cands

    def test_scan_finds_planted_secret(self):
        secret = bytes(range(16))
        blob = b"noise" + secret + b"more"
        assert scan_for_secrets(blob, {secret}) == 1
        assert scan_for_secrets(b"clean bytes only", {secret}) == 0

    def test_scan_rejects_mixed_secret_widths(self):
        # one window width cannot match both; a silent pass would hide a leak
        with pytest.raises(ValueError):
            scan_for_secrets(b"noise" + bytes(range(24)), {bytes(range(16)), bytes(range(24))})

    def test_scan_rejects_a_zero_width_secret(self):
        # the per-offset loop would report len(t) + 1 empty "hits"
        with pytest.raises(ValueError, match="at least one byte"):
            scan_for_secrets(b"any bytes", {b""})

    def test_pairwise_xor_is_never_narrowed(self, suite):
        # more recovered keys than any fixed cap: every pair still XORs
        rng = random.Random(70)
        keys = [KeyMaterial.random(rng) for _ in range(70)]
        cands = candidate_group_keys(suite, keys, [])
        assert (keys[3] ^ keys[50]).data in cands
        pairs = {bytes(a ^ b for a, b in zip(x.data, y.data))
                 for x, y in itertools.combinations(keys, 2)}
        assert cands == {k.data for k in keys} | pairs


CHUNK = adversary._SCAN_CHUNK


def plant(buf, offset, window):
    """Write `window` into `buf` at `offset`, clipped to the buffer."""
    window = window[: max(0, len(buf) - offset)]
    buf[offset : offset + len(window)] = window


class TestSecretScan:
    """The prefix-table scan counts exactly what the per-offset loop counts."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1),
           width=st.sampled_from([1, 2, 3, 16, 24]),  # 1-2: below the 3-byte prefix
           alphabet=st.sampled_from([2, 4, 256]),
           length=st.sampled_from(["short", "chunk-1", "chunk", "chunk+1", "chunks"]),
           n_random=st.sampled_from([0, 1, 2, 50, 5000]),
           plant_windows=st.booleans())
    def test_matches_the_loop(self, seed, width, alphabet, length, n_random, plant_windows):
        rng = random.Random(seed)
        # a transcript of exactly CHUNK start offsets is exactly one chunk
        size = {"short": rng.randrange(width),
                "chunk-1": CHUNK + width - 2,
                "chunk": CHUNK + width - 1,
                "chunk+1": CHUNK + width,
                "chunks": rng.randrange(2 * CHUNK, 3 * CHUNK)}[length]
        buf = bytearray(rng.randrange(alphabet) for _ in range(size))
        secrets = {bytes(rng.randrange(alphabet) for _ in range(width))
                   for _ in range(n_random)}
        planted = set()
        if plant_windows and size >= width:
            last = size - width
            offsets = [0, last]
            for edge in range(CHUNK, size, CHUNK):  # every chunk boundary
                offsets += [edge - 1, edge - (width + 1) // 2, edge]
            offsets = [o for o in offsets if 0 <= o <= last]
            repeated = bytes(rng.randrange(alphabet) for _ in range(width))
            for o in offsets:
                plant(buf, o, repeated if rng.random() < 0.3 else
                      bytes(rng.randrange(alphabet) for _ in range(width)))
                # an overlapping copy one byte further on
                if rng.random() < 0.3:
                    plant(buf, o + 1, bytes(buf[o : o + width]))
            planted = set(offsets)
            secrets |= {bytes(buf[o : o + width]) for o in planted}
        t = bytes(buf)
        got = scan_for_secrets(t, secrets)
        assert got == scan_reference(t, secrets)
        assert got >= len(planted)

    def test_real_frame_bytes(self, fig4_session):
        # frame headers repeat, so prefixes collide far more often than in
        # random bytes; windows planted at and across frame boundaries
        s = fig4_session
        s.establish()
        s.member_join(19, {6})
        s.member_leave(19)
        s.periodic_global_rekey()
        frames = [m.to_bytes() for m in s.transport.messages]
        t = s.transport.transcript
        assert t == b"".join(frames)
        starts = list(itertools.accumulate(len(f) for f in frames[:-1]))
        live = s.current_secrets()
        assert scan_for_secrets(t, live) == scan_reference(t, live) == 0
        rng = random.Random(25)
        for width in (1, 2, 3, 4, crypto.KEY_BYTES, 24):
            picks = rng.sample(starts, 20)
            back = (width + 1) // 2
            windows = {t[b : b + width] for b in picks}  # inside a header
            windows |= {t[b - back : b - back + width] for b in picks}  # across a boundary
            secrets = {w for w in windows if len(w) == width}
            if width == crypto.KEY_BYTES:
                secrets |= live
            got = scan_for_secrets(t, secrets)
            assert got == scan_reference(t, secrets)
            assert got >= len(picks)


def every_frame_candidate_group_keys(suite, keys, messages):
    """The one rule without the skip of frames that carry no key field: it
    tries to open every non-digest frame under every key."""
    pool = list({k.data: k for k in keys}.values())
    recovered = [k.data for k in pool]
    for msg in messages:
        if msg.kind in wire.DIGEST_KINDS or msg.kind not in wire.LAYOUTS:
            continue
        for key in pool:
            try:
                pt = suite.decrypt(key, msg.payload)
            except IntegrityFailure:
                continue
            try:
                recovered += [f.data for f in wire.unpack(msg.kind, pt)
                              if isinstance(f, KeyMaterial)]
            except wire.WireError:
                pass
            break
    return set(recovered) | {bytes(x ^ y for x, y in zip(a, b))
                             for a, b in itertools.combinations(recovered, 2) if a != b}


def per_kind_candidate_group_keys(suite, keys, messages):
    """The oracle before its one rule: z joins the candidates, a checker
    share pairs only with keys recovered from frames before it, a ratchet
    adds carrier xor fresh, and every other carried key joins the pairwise
    XOR. It tries to open every non-digest frame."""
    candidates = set()
    subkeys = list(keys)
    pool = list({k.data: k for k in keys}.values())

    def try_open(payload):
        for key in pool:
            try:
                return key, suite.decrypt(key, payload)
            except IntegrityFailure:
                continue
        return None, None

    for msg in messages:
        if msg.kind in wire.DIGEST_KINDS or msg.kind not in wire.LAYOUTS:
            continue
        key, pt = try_open(msg.payload)
        if pt is None:
            continue
        try:
            carried = [f for f in wire.unpack(msg.kind, pt) if isinstance(f, KeyMaterial)]
        except wire.WireError:
            continue
        if msg.kind == MessageKind.AGREE_STEP2:
            candidates.update((z ^ carried[0]).data for z in subkeys)
            continue
        if msg.kind == MessageKind.AGREE_STEP1:
            candidates.add(carried[0].data)
        elif msg.kind in (MessageKind.GLOBAL_REKEY, MessageKind.LOCAL_REKEY_STEP1,
                          MessageKind.MASTER_REKEY):
            candidates.add((key ^ carried[0]).data)
        subkeys.extend(carried)
    recovered = list({k.data: k for k in subkeys}.values())
    for i, a in enumerate(recovered):
        candidates.add(a.data)
        candidates.update((a ^ b).data for b in recovered[i + 1:])
    return candidates


def opens(suite, keys, msg):
    for key in keys:
        try:
            suite.decrypt(key, msg.payload)
            return True
        except IntegrityFailure:
            continue
    return False


def churn_captures(s):
    """Three leave/join cycles on `s`: each party's knowledge, its transcript
    slice and, for a leaver, the (epoch, roster) after; plus the root's keys
    before every epoch, which open every frame."""
    rng = random.Random(3)
    captures, stolen = [], []
    for joiner in range(100, 103):
        victim = rng.choice(sorted(s.members - {s.root}))
        former = set(s.graph[victim])
        know = capture_knowledge(s, victim)
        stolen.extend(capture_knowledge(s, s.root).keys)
        mark = len(s.transport.messages)
        s.member_leave(victim)
        captures.append((know, broadcasts_since(s.transport.messages, mark),
                         (s.epoch, sorted(s.members))))
        pre = last_broadcasts(s.transport.messages, 30)
        stolen.extend(capture_knowledge(s, s.root).keys)
        s.member_join(joiner, {e for e in former if e in s.members})
        captures.append((capture_knowledge(s, joiner), pre, None))
    return captures, stolen


def oracle_outputs(suite, captures):
    return [forward_secrecy_candidates(suite, know, frames, *after) if after
            else backward_secrecy_candidates(suite, know, frames)
            for know, frames, after in captures]


class TestOpenerSetup:
    def test_one_aead_per_distinct_pool_key(self, churn_session, suite, monkeypatch):
        # a trial open must not build its AEAD: the count stays at one per
        # distinct held key however many frames are opened
        built, real = [], crypto.AESGCM

        def counting_aesgcm(key):  # the Rust AESGCM type cannot be subclassed
            built.append(key)
            return real(key)

        s = churn_session
        _, stolen = churn_captures(s)
        frames = s.transport.messages
        distinct = {k.data for k in stolen}
        crypto._aead.cache_clear()  # the session's own frames cached some of these keys
        monkeypatch.setattr(crypto, "AESGCM", counting_aesgcm)
        candidate_group_keys(suite, stolen, frames)
        assert sorted(built) == sorted(distinct)
        # the call tried every key on dozens of key-carrying frames and
        # opened many of them
        carrying = [m for m in frames if m.kind in adversary._KEY_CARRYING]
        monkeypatch.undo()
        assert len(carrying) > 40
        assert sum(opens(suite, stolen, m) for m in carrying) > 10


class TestOracleEquivalence:
    def test_keyless_frames_never_add_a_candidate(self, churn_session, suite, monkeypatch):
        s = churn_session
        captures, stolen = churn_captures(s)
        current = oracle_outputs(suite, captures)
        monkeypatch.setattr(adversary, "candidate_group_keys", every_frame_candidate_group_keys)
        assert oracle_outputs(suite, captures) == current and all(current)
        # the stolen keys open keyless frames, so the skip is exercised
        frames = s.transport.messages
        assert any(opens(suite, stolen, m) for m in frames
                   if "K" not in wire.LAYOUTS.get(m.kind, "K"))
        assert candidate_group_keys(suite, stolen, frames) == \
            every_frame_candidate_group_keys(suite, stolen, frames)

    def test_one_rule_finds_all_the_per_kind_rules_found(self, churn_session, suite,
                                                          monkeypatch):
        s = churn_session
        captures, stolen = churn_captures(s)
        current = oracle_outputs(suite, captures)
        monkeypatch.setattr(adversary, "candidate_group_keys", per_kind_candidate_group_keys)
        assert all(new >= old for new, old in zip(current, oracle_outputs(suite, captures)))
        frames = s.transport.messages
        new = candidate_group_keys(suite, stolen, frames)
        old = per_kind_candidate_group_keys(suite, stolen, frames)
        # the root's keys open every checker share, so the rule widens here
        assert new > old

    def test_suite_calls_match_the_per_kind_rules(self, monkeypatch):
        # on the security suite both oracles give the same sets, so widening
        # what the attacker is credited with shows up here as a failure
        pairs = []
        one_rule = adversary.candidate_group_keys

        def both(suite, keys, messages):
            new = one_rule(suite, keys, messages)
            pairs.append((new, per_kind_candidate_group_keys(suite, keys, messages)))
            return new

        monkeypatch.setattr(adversary, "candidate_group_keys", both)
        report = run_security_suite(77, cycles=20, replay_trials=10)
        assert report.all_passed()
        assert len(pairs) == 40
        assert all(new == old for new, old in pairs)


class TestFrameOrder:
    def seal(self, suite, key, kind, *fields):
        payload = suite.encrypt(key, wire.pack(kind, *fields), random.Random(len(fields)))
        return wire.ProtocolMessage(kind, fields[0], wire.BROADCAST, (fields[0],), payload)

    def test_checker_share_before_its_z(self, churn_session, suite):
        # GK = z xor S_ch is found whichever of the two frames comes first
        s = churn_session
        agree = {m.kind: m for m in s.transport.messages
                 if m.kind in (MessageKind.AGREE_STEP1, MessageKind.AGREE_STEP2)}
        frames = [agree[MessageKind.AGREE_STEP2], agree[MessageKind.AGREE_STEP1]]
        assert s.keys.gk.data in candidate_group_keys(suite, [s.master_key], frames)
        assert s.keys.gk.data in candidate_group_keys(suite, [s.master_key], frames[::-1])

    def test_two_checker_shares_pair(self, suite):
        rng = random.Random(17)
        master, z, share_a, share_b = (KeyMaterial.random(rng) for _ in range(4))
        frames = [self.seal(suite, master, MessageKind.AGREE_STEP2, 2, share_a, 5, 6),
                  self.seal(suite, master, MessageKind.AGREE_STEP1, 1, z, 4),
                  self.seal(suite, master, MessageKind.AGREE_STEP2, 2, share_b, 7, 8)]
        cands = candidate_group_keys(suite, [master], frames)
        for want in (z ^ share_a, z ^ share_b, share_a ^ share_b, share_a, master ^ z):
            assert want.data in cands


class TestSuiteOracleInputs:
    # sha256 of every frame run_security_suite hands its two secrecy oracles,
    # tagged F (a leaver's later broadcasts) or B (a joiner's earlier ones);
    # an off-by-one in either broadcast slice changes it
    ORACLE_INPUTS_SHA256 = "aa10a982254a78f3d6e384b5dc9095f0f1373f20f2f2c809d488777e9add0cb7"

    def test_oracle_inputs_are_pinned(self, monkeypatch):
        h = hashlib.sha256()
        forward, backward = forward_secrecy_candidates, backward_secrecy_candidates

        def feed(tag, frames):
            h.update(tag)
            for msg in frames:
                h.update(msg.to_bytes())

        def forward_logged(suite, know, post, *after):
            feed(b"F", post)
            return forward(suite, know, post, *after)

        def backward_logged(suite, know, pre):
            feed(b"B", pre)
            return backward(suite, know, pre)

        monkeypatch.setattr(adversary, "forward_secrecy_candidates", forward_logged)
        monkeypatch.setattr(adversary, "backward_secrecy_candidates", backward_logged)
        report = run_security_suite(77, cycles=20, replay_trials=10)
        assert report.all_passed()
        assert h.hexdigest() == self.ORACLE_INPUTS_SHA256

    # sha256 over every candidate set the suite's oracle calls return, each
    # sorted and length-prefixed, in call order. Computed before trial opens
    # moved from CipherSuite.decrypt to CipherSuite.opener, so it pins that
    # the faster oracle credits the attacker with exactly the same keys.
    ORACLE_OUTPUTS_SHA256 = "a3e15c896b829a8a7e276a0f43580101e2aa4b0959cb283fe531df096e9b59ad"

    def test_oracle_outputs_are_pinned(self, monkeypatch):
        h = hashlib.sha256()
        sizes = []
        oracle = adversary.candidate_group_keys

        def logged(suite, keys, messages):
            cands = oracle(suite, keys, messages)
            h.update(len(cands).to_bytes(4, "big"))
            for key in sorted(cands):
                h.update(key)
            sizes.append(len(cands))
            return cands

        monkeypatch.setattr(adversary, "candidate_group_keys", logged)
        report = run_security_suite(77, cycles=20, replay_trials=10)
        assert report.all_passed()
        assert len(sizes) == 40 and sum(sizes) == 4428
        assert h.hexdigest() == self.ORACLE_OUTPUTS_SHA256

    def test_broadcast_slices_match_a_filtered_log(self, churn_session):
        churn_session.member_join(50, {0})
        churn_session.member_leave(50)
        msgs = churn_session.transport.messages
        every = [m for m in msgs if m.receiver == wire.BROADCAST]
        assert 0 < len(every) < len(msgs)
        for mark in (0, 1, len(msgs) // 2, len(msgs)):
            assert broadcasts_since(msgs, mark) == every[sum(m.receiver == wire.BROADCAST
                                                             for m in msgs[:mark]):]
        for n in (0, 1, 30, len(every) + 5):
            assert last_broadcasts(msgs, n) == every[len(every) - min(n, len(every)):]


class TestForwardSecrecy:
    def test_leaver_cannot_compute_new_gk(self, churn_session, suite):
        for _ in range(3):
            victim = max(churn_session.members - {churn_session.root,
                                                  churn_session.checker})
            know = capture_knowledge(churn_session, victim)
            mark = len(churn_session.transport.messages)
            keys = churn_session.member_leave(victim)
            post = broadcasts_since(churn_session.transport.messages, mark)
            cands = forward_secrecy_candidates(suite, know, post, churn_session.epoch,
                                               sorted(churn_session.members))
            # every held key is itself a candidate
            assert {k.data for k in know.keys} <= cands
            assert keys.gk.data not in cands

    def test_departed_checker_excluded(self, churn_session, suite):
        victim = churn_session.checker
        know = capture_knowledge(churn_session, victim)
        mark = len(churn_session.transport.messages)
        keys = churn_session.member_leave(victim)
        post = broadcasts_since(churn_session.transport.messages, mark)
        cands = forward_secrecy_candidates(suite, know, post, churn_session.epoch,
                                           sorted(churn_session.members))
        assert keys.gk.data not in cands


class TestBackwardSecrecy:
    def test_joiner_cannot_compute_old_gks(self, churn_session, suite):
        old = [churn_session.keys.gk.data]
        churn_session.periodic_global_rekey()
        old.append(churn_session.keys.gk.data)
        pre = broadcasts_since(churn_session.transport.messages, 0)
        churn_session.member_join(99, {0, 2})
        know = capture_knowledge(churn_session, 99)
        cands = backward_secrecy_candidates(suite, know, pre)
        assert {k.data for k in know.keys} <= cands
        for gk in old:
            assert gk not in cands


class TestReplayHarness:
    def test_replays_are_inert(self, churn_session):
        churn_session.member_join(50, {0})
        churn_session.periodic_global_rekey()
        rng = random.Random(0)
        assert sum(replay_once(churn_session, rng) for _ in range(100)) == 0


def fingerprint_verdicts(monkeypatch):
    """Route every replay through a wrapper that records the checkpoint
    verdict beside a fingerprint before/after comparison of the same step."""
    pairs = []
    checked = adversary.replay_moves_state

    def both(session, msg, victims):
        victims = list(victims)
        before = [session.nodes[v].state.fingerprint() for v in victims]
        verdict = checked(session, msg, victims)
        pairs.append((verdict, before != [session.nodes[v].state.fingerprint()
                                          for v in victims]))
        return verdict

    monkeypatch.setattr(adversary, "replay_moves_state", both)
    return pairs


class TestReplayVerdict:
    def test_equals_the_fingerprint_on_every_suite_replay(self, monkeypatch):
        pairs = fingerprint_verdicts(monkeypatch)
        report = run_security_suite(seed=77, cycles=20, replay_trials=60)
        assert len(pairs) == report.replay_trials == 61
        assert all(verdict == oracle for verdict, oracle in pairs)
        assert report.replay_failures == 0

    def test_equals_the_fingerprint_when_replays_move_state(self, monkeypatch):
        pairs = fingerprint_verdicts(monkeypatch)
        report = run_security_suite(seed=123, cycles=3, replay_trials=30,
                                    weaken_nonce_check=True)
        assert all(verdict == oracle for verdict, oracle in pairs)
        assert sum(verdict for verdict, _ in pairs) == report.replay_failures > 0

    def test_equals_the_fingerprint_on_radio_replays(self, monkeypatch):
        pairs = fingerprint_verdicts(monkeypatch)
        cfg = sim.ScenarioConfig(
            node_count=16, area_width=600, area_height=400, duration=20,
            traffic=sim.TrafficConfig(generators=4, destinations=2,
                                      attack_start=5, attack_end=20),
            som=SomConfig(rows=6, cols=8, epochs=2), coverage_window=10,
            replayers=(5,), replay_at=(10.0,),
            schedule=(sim.ScheduleEvent(8.0, "global_rekey"),))
        row = sim.run_scenario(cfg, 29).rows[0]
        assert len(pairs) > 10 and all(verdict == oracle for verdict, oracle in pairs)
        assert row["replay_state_changes"] == 0

    @pytest.mark.parametrize("peer", [1, 9])  # a peer already seen, and a new one
    def test_a_burned_nonce_alone_moves_state(self, churn_session, peer):
        node = churn_session.nodes[3]
        node.state.seen_nonces.setdefault(1, set())
        msg = churn_session.transport.messages[0]

        def burn_only(m):
            node.state.seen_nonces.setdefault(peer, set()).add(2**40 + 7)
            return []

        node.step = burn_only
        before = node.state.fingerprint()
        assert adversary.replay_moves_state(churn_session, msg, [3]) is True
        assert node.state.fingerprint() != before
        node.step = lambda m: []
        assert adversary.replay_moves_state(churn_session, msg, [3]) is False


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
