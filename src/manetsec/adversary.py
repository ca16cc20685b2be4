"""Adversary harness: eavesdropping, replay and membership-secrecy oracles.

The oracles are deliberately strong best-effort attackers. A departed or
joining member keeps every key it legitimately held, tries the public
master-key chain formula, decrypts whatever any of its keys open in the
transcript slice it is entitled to, and tries every key it held or
recovered, and the XOR of every pair of them, as a group key. The security
goals hold exactly when those candidate sets miss the real keys.

Visibility model (documented in SECURITY.md): a member sees messages
delivered to it plus broadcasts; after leaving it keeps hearing broadcast
traffic but not unicast exchanges between other parties.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

import numpy as np

from .crypto import KEY_BYTES, CipherSuite, KeyMaterial
from .protocol import GroupSession, derive_master_key, membership
from .wire import BROADCAST, MessageKind, ProtocolMessage
from . import wire


@dataclass
class NodeKnowledge:
    """Everything one party holds at capture time."""

    keys: list[KeyMaterial] = field(default_factory=list)   # decryption-capable
    delivered: list[ProtocolMessage] = field(default_factory=list)


def capture_knowledge(session: GroupSession, node_id: int) -> NodeKnowledge:
    """Snapshot a member's key state and its delivered-message log."""
    return NodeKnowledge(keys=session.nodes[node_id].state.key_material(),
                         delivered=list(session.transport.delivered.get(node_id, ())))


# Sealed kinds whose plaintext carries a key field: opening any other frame
# can never add a candidate, so the oracle does not try.
_KEY_CARRYING = frozenset(kind for kind in wire.SEALED_KINDS if "K" in wire.LAYOUTS[kind])


def candidate_group_keys(suite: CipherSuite, keys: list[KeyMaterial],
                         messages: list[ProtocolMessage]) -> set[bytes]:
    """All group keys derivable from `keys` plus the given transcript slice.

    One rule for every kind: each key field of a key-carrying frame that one
    of `keys` opens joins the recovered set, which starts with `keys`, and
    the candidates are the recovered keys plus the XOR of every pair. Since
    the opening key is in the set, this covers z, z xor S_ch and every XOR
    ratchet (new = carrier xor fresh), in whatever order the frames come.
    Digest payloads contribute nothing (preimage resistance assumed), and
    neither do frames without a key field. Each held key's AEAD is set up
    once per call, so a trial open is one AES-GCM call.
    """
    pool = list({k.data: k for k in keys}.values())  # dedup, keep order
    recovered = {k.data for k in pool}
    try_open = suite.opener(pool)  # first key in pool order that opens, or None
    for msg in messages:
        if msg.kind not in _KEY_CARRYING:
            continue
        pt = try_open(msg.payload)
        if pt is None:
            continue
        try:
            fields = wire.unpack(msg.kind, pt)
        except wire.WireError:
            continue
        recovered.update(f.data for f in fields if isinstance(f, KeyMaterial))
    # pairwise XOR of everything recovered, the strongest algebra available
    # to a passive holder of partial material
    ints = [int.from_bytes(k, "big") for k in recovered]
    candidates = set(recovered)
    for i, a in enumerate(ints):
        candidates.update((a ^ b).to_bytes(KEY_BYTES, "big") for b in ints[i + 1:])
    return candidates


def forward_secrecy_candidates(suite: CipherSuite, know: NodeKnowledge,
                               post_broadcasts: list[ProtocolMessage],
                               epoch_after: int, roster_after: list[int]) -> set[bytes]:
    """Group keys a leaver can reach from its history plus later broadcasts.

    Its keys include the attack the leave design must defeat: the public
    hash-chain master-key update replayed with every key the leaver holds.
    """
    roster = membership(epoch_after, roster_after)
    keys = know.keys + [derive_master_key(suite, k, roster) for k in know.keys]
    return candidate_group_keys(suite, keys, know.delivered + post_broadcasts)


def backward_secrecy_candidates(suite: CipherSuite, know: NodeKnowledge,
                                pre_broadcasts: list[ProtocolMessage]) -> set[bytes]:
    """Group keys a joiner can reach from its state plus earlier broadcasts."""
    return candidate_group_keys(suite, list(know.keys), pre_broadcasts + know.delivered)


def broadcasts_since(messages: list[ProtocolMessage], mark: int) -> list[ProtocolMessage]:
    """The broadcast frames among `messages[mark:]`: what a leaver goes on hearing."""
    return [m for m in messages[mark:] if m.receiver == BROADCAST]


def last_broadcasts(messages: list[ProtocolMessage], n: int) -> list[ProtocolMessage]:
    """The last `n` broadcast frames in send order, found walking back from the end."""
    back = (m for m in reversed(messages) if m.receiver == BROADCAST)
    return list(itertools.islice(back, n))[::-1]


# The scan walks the transcript in chunks of this many start offsets, so its
# numpy temporaries stay bounded whatever the transcript length.
_SCAN_CHUNK = 1 << 14


def _prefix_index(cols: list[np.ndarray], shift: int) -> np.ndarray:
    """Big-endian integer of the byte columns `cols`, less its low `shift` bits."""
    v = cols[0].astype(np.uint32)
    for col in cols[1:]:
        v <<= 8
        v |= col
    v >>= shift
    return v


def scan_for_secrets(transcript: bytes, secrets: set[bytes]) -> int:
    """Count byte-aligned occurrences of any secret (all of one width) in the raw bytes.

    Every start offset of the whole transcript counts, across frame
    boundaries. A boolean table over the top bits of each secret's first
    (up to) three bytes marks the offsets that could start a secret; only
    those are compared with the secret set. The table only prunes: an
    offset it passes over starts no secret, so the count is exact.
    """
    if not secrets:
        return 0
    widths = {len(s) for s in secrets}
    if len(widths) != 1:
        raise ValueError(f"secret scan expects one key width, got {sorted(widths)}")
    (width,) = widths
    if width == 0:
        raise ValueError("secret scan expects a secret of at least one byte")
    t = bytes(transcript)
    n_offsets = len(t) - width + 1
    head = min(3, width)
    # 32 to 64 table entries per secret, clamped to 64K-4M: few chance marks
    bits = min(8 * head, 22, max(16, len(secrets).bit_length() + 5))
    shift = 8 * head - bits
    table = np.zeros(1 << bits, dtype=bool)
    heads = np.frombuffer(b"".join(s[:head] for s in secrets), dtype=np.uint8)
    table[_prefix_index(list(heads.reshape(-1, head).T), shift)] = True
    buf = np.frombuffer(t, dtype=np.uint8)
    hits = 0
    for start in range(0, n_offsets, _SCAN_CHUNK):
        n = min(_SCAN_CHUNK, n_offsets - start)
        cols = [buf[start + j : start + j + n] for j in range(head)]
        marked = np.flatnonzero(table[_prefix_index(cols, shift)]) + start
        hits += sum(t[i : i + width] in secrets for i in marked.tolist())
    return hits


def replay_moves_state(session: GroupSession, msg: ProtocolMessage, victims) -> bool:
    """Step every victim through `msg` again; True if any node's state moved.

    A victim's state before the step is its `checkpoint()` plus a copy of
    `seen_nonces`, which the checkpoint shares; both compare by `==`, so a
    replay that only burns a nonce still counts. `NodeState.fingerprint()`
    gives the same verdict and is its test oracle.
    """
    nodes = [session.nodes[v] for v in victims]
    before = [(node.state.checkpoint(),
               {peer: set(seen) for peer, seen in node.state.seen_nonces.items()})
              for node in nodes]
    for node in nodes:
        node.step(msg)  # discard any output: state is the question
    return any(node.state != snap or node.state.seen_nonces != seen
               for node, (snap, seen) in zip(nodes, before))


def replay_once(session: GroupSession, rng: random.Random) -> bool:
    """Re-inject one previously sent message; True if any key state changed."""
    msgs = session.transport.messages
    if not msgs:
        return False
    msg = msgs[rng.randrange(len(msgs))]
    return replay_moves_state(session, msg,
                              session.transport.peek_targets(msg, session.nodes.keys()))


# -- whole-suite driver ----------------------------------------------------------

@dataclass
class SecuritySuiteReport:
    epochs: int = 0
    transcript_bytes: int = 0
    transcript_hits: int = 0
    replay_trials: int = 0
    replay_failures: int = 0
    leaver_trials: int = 0
    leaver_breaks: int = 0
    joiner_trials: int = 0
    joiner_breaks: int = 0
    elapsed: float = 0.0

    def verdicts(self) -> dict[str, bool]:
        return {
            "key_secrecy": self.transcript_hits == 0,
            "replay_resistance": self.replay_failures == 0,
            "forward_secrecy": self.leaver_breaks == 0,
            "backward_secrecy": self.joiner_breaks == 0,
        }

    def all_passed(self) -> bool:
        return all(self.verdicts().values())


def run_security_suite(seed: int, cycles: int = 1000,
                       replay_trials: int = 100, weaken_nonce_check: bool = False,
                       ) -> SecuritySuiteReport:
    """Exercise the four security goals on a churning 8-node group.

    Every cycle expels one member (forward-secrecy oracle against the keys
    agreed right after) and admits a replacement (backward-secrecy oracle
    against every key agreed before). The raw wire transcript is scanned for
    every secret that was ever live, and previously delivered messages are
    re-injected to confirm no node state moves.
    """
    t0 = time.monotonic()
    suite = CipherSuite()
    rng = random.Random(seed)
    base = 8
    graph: dict[int, set[int]] = {i: set() for i in range(base)}
    ring = [(i, (i + 1) % base) for i in range(base)]
    chords = [(0, 2), (0, 4), (1, 5), (3, 7), (2, 6)]
    for a, b in ring + chords:
        graph[a].add(b)
        graph[b].add(a)

    session = GroupSession(graph, root=0, members=set(range(base)), suite=suite,
                           seed=seed, unsafe_skip_nonce_checks=weaken_nonce_check)
    report = SecuritySuiteReport()
    session.establish()
    report.epochs = 1
    all_secrets: set[bytes] = set(session.current_secrets())
    historical_gks: list[bytes] = [session.keys.gk.data]
    next_id = base

    for _ in range(cycles):
        candidates = sorted(session.members - {session.root})
        victim = candidates[rng.randrange(len(candidates))]
        former_edges = set(session.graph[victim])
        know = capture_knowledge(session, victim)
        mark = len(session.transport.messages)
        keys_after = session.member_leave(victim)
        report.epochs += 1
        all_secrets |= session.current_secrets()

        post = broadcasts_since(session.transport.messages, mark)
        cands = forward_secrecy_candidates(suite, know, post, session.epoch,
                                           sorted(session.members))
        report.leaver_trials += 1
        if keys_after.gk.data in cands:
            report.leaver_breaks += 1

        pre = last_broadcasts(session.transport.messages, 30)
        joiner = next_id
        next_id += 1
        edges = {e for e in former_edges if e in session.members}
        session.member_join(joiner, edges)
        report.epochs += 1
        all_secrets |= session.current_secrets()
        historical_gks.append(session.keys.gk.data)

        know_j = capture_knowledge(session, joiner)
        cands_j = backward_secrecy_candidates(suite, know_j, pre)
        report.joiner_trials += 1
        if any(g in cands_j for g in historical_gks[:-1]):
            report.joiner_breaks += 1

    transcript = session.transport.transcript
    report.transcript_bytes = len(transcript)
    report.transcript_hits = scan_for_secrets(transcript, all_secrets)

    replay_rng = random.Random(seed ^ 0x5EED1E55)
    for _ in range(replay_trials):
        report.replay_trials += 1
        if replay_once(session, replay_rng):
            report.replay_failures += 1
    # targeted probe: re-inject the latest fresh-keyed exchange opener, the
    # replay a weakened build always mishandles
    for msg in reversed(session.transport.messages):
        if msg.kind in (MessageKind.AUTH_STEP1, MessageKind.JOIN_STEP_A) \
                and msg.receiver in session.nodes:
            report.replay_trials += 1
            report.replay_failures += replay_moves_state(session, msg, [msg.receiver])
            break
    report.elapsed = time.monotonic() - t0
    return report
