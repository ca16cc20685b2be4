"""Per-node key agreement state machines and the group orchestration layer.

The flow mirrors the tree structure: every child authenticates to its parent
with a three-step encrypted nonce exchange and hands up an intermediate key
(its share XORed with its children's intermediates), the root folds them into
the subkey z, and the checker turns z into the group key GK = z xor S_Ch,
collecting a confirmation digest from every member. Joins refresh exactly the
key path of the new member; leaves re-layer the tree, rotate the master key
with fresh root entropy carried over per-edge keys, and refresh the affected
paths; periodic rekeys ratchet GK and the local keys by XOR.

Nodes never raise on bad input: undecryptable, replayed or out-of-phase
messages are dropped and counted, which is what the replay/tamper harnesses
assert against. Orchestration-level failures (timeouts, checker mismatch)
abort the epoch and roll back every node it touched: an epoch records a
node's field dict the first time it steps a frame for the node or writes
it, and copies a container field the first time it changes it in place, so
an epoch costs in proportion to the nodes it touches, not to the group.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
import random
import struct
from collections import deque
from collections.abc import Collection, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

from .crypto import (MAX_NONCE, CipherSuite, IntegrityFailure, KeyMaterial, NonceSource,
                     xor_combine)
from .keytree import (
    Graph,
    KeyTree,
    NodeId,
    TreeError,
    attach_member,
    build_tree,
    detach_member,
    key_path,
    select_checker,
)
from . import wire
from .wire import BROADCAST, MessageKind, ProtocolMessage

__all__ = [
    "GroupSession",
    "ProtocolNode",
    "NodeState",
    "SessionKeys",
    "Transport",
    "ProtocolAbort",
    "InitiationTimeout",
    "CheckerVerificationFailure",
    "RekeyFailure",
    "UnsupportedLeave",
]


class ProtocolAbort(Exception):
    """Epoch-level failure; the session restores its pre-epoch state."""


class InitiationTimeout(ProtocolAbort):
    def __init__(self, edges):
        super().__init__(f"initiation incomplete on edges: {sorted(edges)}")


class CheckerVerificationFailure(ProtocolAbort):
    def __init__(self, nodes):
        super().__init__(f"checker rejected confirmations from: {sorted(nodes)}")


class RekeyFailure(ProtocolAbort):
    pass


class UnsupportedLeave(Exception):
    """Root departure dissolves the group; it is not a leave event."""


ROLE_ROOT = "root"
ROLE_CHECKER = "checker"
ROLE_MEMBER = "member"

@dataclass
class SessionKeys:
    """Commit record of a successful epoch: the group key and the epoch number."""

    gk: KeyMaterial
    epoch: int


@dataclass
class NodeState:
    """Everything a node knows; diagnostics live on the ProtocolNode instead."""

    my_id: NodeId
    master_key: KeyMaterial
    tree: KeyTree        # the group's, by reference: role, parent and children read it
    share: KeyMaterial | None = None            # S_i (S_Ch for the checker)
    intermediate: KeyMaterial | None = None     # K_i' last sent up
    subkey: KeyMaterial | None = None           # z
    session_key: KeyMaterial | None = None      # K == GK
    local_keys: dict[NodeId, KeyMaterial] = field(default_factory=dict)
    edge_keys: dict[NodeId, KeyMaterial] = field(default_factory=dict)
    # cached per child: (intermediate key, bare share) from its last step 3
    children_received: dict[NodeId, tuple[KeyMaterial, KeyMaterial]] = field(default_factory=dict)
    pending_nonces: dict[str, int] = field(default_factory=dict)
    seen_nonces: dict[NodeId, set[int]] = field(default_factory=dict)
    # per-epoch exchange bookkeeping; an exchange's progress towards the
    # parent is its pending nonce: "up_echo" until step 2, "up_final" until step 3
    pending_children: set[NodeId] = field(default_factory=set)
    pending_membership: tuple[bytes, bytes] | None = None  # membership() of a leave
    expected_confirm: bytes | None = None
    confirmations: set[NodeId] = field(default_factory=set)
    confirm_failures: set[NodeId] = field(default_factory=set)
    local_rekey_peer: dict[NodeId, int] = field(default_factory=dict)  # root: step-3 nonces

    @property
    def role(self) -> str:
        if self.my_id == self.tree.checker:
            return ROLE_CHECKER
        return ROLE_ROOT if self.my_id == self.tree.root else ROLE_MEMBER

    @property
    def parent_id(self) -> NodeId | None:
        tree = self.tree
        return tree.root if self.my_id == tree.checker else tree.parent.get(self.my_id)

    @property
    def children(self) -> list[NodeId]:
        return self.tree.children.get(self.my_id, [])

    def fingerprint(self) -> str:
        """Stable digest of every declared field, for equality assertions."""
        return hashlib.sha256(
            repr([_canonical(getattr(self, name)) for name in _FIELDS]).encode()).hexdigest()

    def checkpoint(self) -> NodeState:
        """An independent copy of this state, for comparing a state before
        and after a step (`adversary.replay_moves_state` and the tests).

        A copy of the instance dict in which every dict and set field is
        copied one level deep: their values are frozen KeyMaterials, tuples
        and ints. Every other field is kept by reference, `tree` too, since a
        KeyTree is frozen. `seen_nonces` is shared on purpose, so nonces
        burned during an aborted epoch stay burned. An epoch's rollback takes
        no checkpoint: it records the field dict alone, and a container is
        copied when the epoch first changes it (`ProtocolNode._own`).
        """
        snap = object.__new__(NodeState)
        snap.__dict__ = fields = self.__dict__.copy()
        for name in _COPIED:
            fields[name] = fields[name].copy()
        return snap

    def key_material(self) -> list[KeyMaterial]:
        """Every key this node holds, cached child contributions included."""
        keys = [self.master_key]
        keys.extend(v for v in (self.session_key, self.subkey, self.share, self.intermediate)
                    if v is not None)
        keys.extend(self.local_keys.values())
        keys.extend(self.edge_keys.values())
        keys.extend(k for k, _ in self.children_received.values())
        keys.extend(s for _, s in self.children_received.values())
        return keys


_FIELDS = tuple(f.name for f in dataclasses.fields(NodeState))
_COPIED = tuple(f.name for f in dataclasses.fields(NodeState)
                if f.default_factory in (dict, set) and f.name != "seen_nonces")


def _canonical(value):
    """Order-free form of a state value: a key becomes its bytes, a dict (or a
    tree's parent map) its sorted items and a set its sorted values."""
    if isinstance(value, KeyMaterial):
        return value.data
    if isinstance(value, KeyTree):
        return value.root, sorted(value.parent.items()), value.checker
    if isinstance(value, dict):
        return sorted((k, _canonical(v)) for k, v in value.items())
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, tuple):
        return tuple(map(_canonical, value))
    return value


@dataclass(slots=True)
class BroadcastMemo:
    """The last value of each derivation that the receivers of one
    broadcast make alike, as (inputs, value), keyed by all of its inputs:
    a frame's open, a session key with its confirmation digest (the checker
    derives the one it expects here too) and a master-key roll.

    Each value is a pure function of its inputs (the suite is stateless,
    KeyMaterial frozen), so serving it to the next node with equal inputs
    moves no byte. One entry per derivation suffices because a pump steps
    all receivers of a frame in a row, and every member rolls a leave's
    master key from the same key over the same roster and salt.
    """

    open: tuple = (None, None)     # (kind, key bytes, payload) -> fields or None
    confirm: tuple = (None, None)  # (checker, nonce, carrier, delta bytes) -> (key, digest)
    roll: tuple = (None, None)     # (old master bytes, roster, salt bytes) -> master key


class ProtocolNode:
    """Single-owner actor wrapping a NodeState.

    Frames change the state only through step(). The session also sets the
    values it computes once per epoch for every member: the master key on a
    join, the roster on a leave and, through configure(), the tree after both.

    `record` is the field dict the running epoch recorded at its first touch
    of this node (`GroupSession._touch`), None when it has not touched it or
    no epoch runs. The record shares every container with the live state, so
    a container field is changed in place only through `_own`, except
    `seen_nonces`, which the record shares on purpose.
    """

    def __init__(self, node_id: NodeId, suite: CipherSuite, master_key: KeyMaterial,
                 tree: KeyTree, rng: random.Random, unsafe_skip_nonce_checks: bool = False):
        self.suite = suite
        self.rng = rng
        self.state = NodeState(my_id=node_id, master_key=master_key, tree=tree)
        self.nonces = NonceSource(rng)
        self.counters: dict[str, int] = {
            "integrity_failures": 0, "nonce_mismatch": 0, "unexpected": 0, "join_requests": 0,
        }
        # Test-only negative control: disables replay defenses.
        self.unsafe_skip_nonce_checks = unsafe_skip_nonce_checks
        # a GroupSession hands all its nodes one memo
        self.memo = BroadcastMemo()
        self.record: dict | None = None

    def _own(self, name: str):
        """The container field `name`, ready to change in place: copied first
        if it is still the object this epoch's record holds."""
        st = self.state
        value = getattr(st, name)
        if self.record is not None and self.record[name] is value:
            value = value.copy()
            setattr(st, name, value)
        return value

    # -- orchestrator-facing helpers ----------------------------------------

    def configure(self, tree: KeyTree) -> None:
        st = self.state
        st.tree = tree
        # drop caches for nodes that are no longer children
        children = st.children
        st.children_received = {c: v for c, v in st.children_received.items() if c in children}
        # a member re-layered away from level 1 (or drafted as checker)
        # loses its pairwise local key
        if (st.parent_id != tree.root or st.role == ROLE_CHECKER) and st.my_id in st.local_keys:
            del self._own("local_keys")[st.my_id]

    def refresh_share(self) -> None:
        self.state.share = KeyMaterial.random(self.rng)

    def begin_exchange(self, step1: MessageKind, awaited: set[NodeId]) -> list[ProtocolMessage]:
        """Start this node's part of a (re)initiation in `step1`'s family: wait for
        the awaited children, then authenticate upward carrying the folded key."""
        st = self.state
        st.pending_children = set(awaited)
        if st.role == ROLE_ROOT:  # the root only ever receives
            self._maybe_finish_root()
            return []
        nonce = self.nonces.fresh()
        self._own("pending_nonces")["up_echo"] = nonce
        return [self._seal(step1, st.parent_id, (st.my_id, st.parent_id), st.master_key,
                           st.my_id, st.parent_id, nonce)]

    def begin_agreement(self) -> list[ProtocolMessage]:
        st = self.state
        assert st.role == ROLE_ROOT and st.subkey is not None
        nonce = self.nonces.fresh()
        self._own("pending_nonces")["agree_root"] = nonce
        return [self._seal(MessageKind.AGREE_STEP1, BROADCAST, (st.my_id,), st.master_key,
                           st.my_id, st.subkey, nonce)]

    def begin_global_rekey(self) -> list[ProtocolMessage]:
        st = self.state
        assert st.role == ROLE_CHECKER and st.session_key is not None
        fresh = KeyMaterial.random(self.rng)
        # the checker commits its side now; the members confirm or the epoch aborts
        old = st.session_key
        nonce = self._await_confirmations(old, fresh)
        return [self._seal(MessageKind.GLOBAL_REKEY, BROADCAST, (st.my_id,), old,
                           st.my_id, fresh, nonce)]

    def _await_confirmations(self, carrier: KeyMaterial, delta: KeyMaterial) -> int:
        """Checker: draw the challenge nonce, adopt carrier ^ delta as the
        session key and open a confirmation window for it."""
        st = self.state
        nonce = self.nonces.fresh()
        st.session_key, st.expected_confirm = self._confirmation(st.my_id, nonce, carrier, delta)
        st.confirmations = set()
        st.confirm_failures = set()
        return nonce

    def begin_local_rekey(self) -> list[ProtocolMessage]:
        st = self.state
        lk_old = st.local_keys.get(st.my_id)
        assert lk_old is not None, "no local key established with the root"
        fresh = KeyMaterial.random(self.rng)
        nonce = self.nonces.fresh()
        lk_new = lk_old ^ fresh
        msg1 = self._seal(MessageKind.LOCAL_REKEY_STEP1, st.tree.root, (st.my_id,), lk_old,
                          st.my_id, fresh, nonce)
        digest = self._confirm_digest(MessageKind.LOCAL_REKEY_STEP3, st.my_id, nonce, lk_new)
        msg3 = ProtocolMessage(MessageKind.LOCAL_REKEY_STEP3, st.my_id, st.tree.root,
                               (st.my_id,), digest)
        # the member commits its side now; the root confirms or the epoch aborts
        self._own("local_keys")[st.my_id] = lk_new
        return [msg1, msg3]

    def begin_master_rekey(self, salt: KeyMaterial,
                           roster: tuple[bytes, bytes]) -> list[ProtocolMessage]:
        """Root only: rotate with fresh entropy and pass it to its children and the checker."""
        st = self.state
        assert st.role == ROLE_ROOT
        st.master_key = self._roll(roster, salt)
        return self._forward_master_rekey(salt, [*st.children, st.tree.checker])

    def join_request(self) -> list[ProtocolMessage]:
        return [ProtocolMessage(MessageKind.JOIN_REQUEST, self.state.my_id, BROADCAST,
                                (self.state.my_id,), b"")]

    # -- message handling ------------------------------------------------------

    def step(self, msg: ProtocolMessage) -> list[ProtocolMessage]:
        """Handle one delivered frame; the only place a sealed frame is opened.

        A sealed kind reaches its handler only as fields that authenticated
        under the key `_receive_key` names; any other such frame is dropped.
        """
        st = self.state
        if msg.receiver not in (st.my_id, BROADCAST) or msg.sender == st.my_id:
            return []
        handler = _HANDLERS.get(msg.kind)
        if handler is None:
            return self._drop("unexpected")
        fields = ()
        if msg.kind in wire.SEALED_KINDS:
            key = self._receive_key(msg)
            if key is None:
                return self._drop("unexpected")
            fields = self._open(msg.kind, key, msg.payload)
            if fields is None:
                return self._drop("integrity_failures")
        return handler(self, msg, *fields)

    def _open(self, kind: MessageKind, key: KeyMaterial, payload: bytes) -> tuple | None:
        """The fields of a sealed frame under `key`; None if it fails to
        authenticate or to parse.

        Opened once per kind, key bytes and payload (`BroadcastMemo.open`);
        each receiver still counts its own drop.
        """
        frame = (kind, key.data, payload)
        memo = self.memo
        if memo.open[0] != frame:
            try:
                fields = wire.unpack(kind, self.suite.decrypt(key, payload))
            except (IntegrityFailure, wire.WireError):
                fields = None
            memo.open = frame, fields
        return memo.open[1]

    def _confirmation(self, cid: NodeId, nonce: int, carrier: KeyMaterial,
                      delta: KeyMaterial) -> tuple[KeyMaterial, bytes]:
        """The session key carrier ^ delta and its AGREE_STEP3 digest for
        checker `cid`'s challenge `nonce`, derived once per checker, nonce,
        carrier and delta bytes (`BroadcastMemo.confirm`)."""
        inputs = (cid, nonce, carrier.data, delta.data)
        memo = self.memo
        if memo.confirm[0] != inputs:
            key = carrier ^ delta
            memo.confirm = inputs, (key, self._confirm_digest(MessageKind.AGREE_STEP3, cid,
                                                              nonce, key))
        return memo.confirm[1]

    def _roll(self, roster: tuple[bytes, bytes], salt: KeyMaterial) -> KeyMaterial:
        """This node's master key rolled over `roster` with `salt`, derived once
        per old master bytes, roster and salt bytes (`BroadcastMemo.roll`)."""
        old = self.state.master_key
        inputs = (old.data, roster, salt.data)
        memo = self.memo
        if memo.roll[0] != inputs:
            memo.roll = inputs, derive_master_key(self.suite, old, roster, salt.data)
        return memo.roll[1]

    def _receive_key(self, msg: ProtocolMessage) -> KeyMaterial | None:
        """The key a sealed frame must open under here; None if this node holds none."""
        st = self.state
        if msg.kind == MessageKind.GLOBAL_REKEY:
            return None if st.role == ROLE_CHECKER else st.session_key
        if msg.kind == MessageKind.LOCAL_REKEY_STEP1:
            return st.local_keys.get(msg.sender) if st.role == ROLE_ROOT else None
        if msg.kind == MessageKind.MASTER_REKEY:
            return None if st.pending_membership is None else st.edge_keys.get(msg.sender)
        return st.master_key

    def _drop(self, counter: str) -> list[ProtocolMessage]:
        self.counters[counter] += 1
        return []

    def _seal(self, kind: MessageKind, receiver: NodeId, ids: tuple[NodeId, ...],
              key: KeyMaterial, *fields) -> ProtocolMessage:
        """Pack `fields` in the layout of `kind` and encrypt them under `key`."""
        pt = wire.pack(kind, *fields)
        return ProtocolMessage(kind, self.state.my_id, receiver, ids,
                               self.suite.encrypt(key, pt, self.rng))

    def _confirm_digest(self, kind: MessageKind, node: NodeId, nonce: int,
                        key: KeyMaterial) -> bytes:
        """Digest proving `key` to the holder of `nonce`: hashes node, nonce+1, key."""
        return self.suite.digest(wire.pack(kind, node, nonce + 1, key))

    def _nonce_fresh(self, peer: NodeId, value: int) -> bool:
        """Record-and-check replay defense for peer-issued nonces.

        MAX_NONCE is never issued and its +1 echo has no 64-bit encoding, so
        it is refused even when the replay checks are disabled.
        """
        if value >= MAX_NONCE:
            return False
        if self.unsafe_skip_nonce_checks:
            return True
        seen = self.state.seen_nonces.setdefault(peer, set())
        if value in seen:
            return False
        seen.add(value)
        return True

    def _edge_key(self, id_d: NodeId, id_a: NodeId, nonce_d: int, nonce_a: int) -> KeyMaterial:
        return self.suite.derive_key(b"edge", self.state.master_key.data,
                                     struct.pack(">IIQQ", id_d, id_a, nonce_d, nonce_a))

    # step 1: descendant opened an exchange towards us (we are the ascendant)
    def _on_step1(self, msg: ProtocolMessage, id_d: NodeId, id_a: NodeId,
                  nonce_d: int) -> list[ProtocolMessage]:
        st = self.state
        if id_a != st.my_id or id_d != msg.sender or msg.ids != (id_d, id_a):
            return self._drop("unexpected")
        if not self._nonce_fresh(id_d, nonce_d):
            return self._drop("nonce_mismatch")
        nonce_a = self.nonces.fresh()
        pending = self._own("pending_nonces")
        pending[f"down_echo:{id_d}"] = nonce_a
        pending[f"down_seen:{id_d}"] = nonce_d
        return [self._seal(_NEXT_STEP[msg.kind], id_d, (st.my_id, id_d), st.master_key,
                           st.my_id, id_d, nonce_d + 1, nonce_a)]

    # step 2: our ascendant answered; prove freshness and send the fold up
    # once every awaited child has reported
    def _on_step2(self, msg: ProtocolMessage, id_a: NodeId, id_d: NodeId, echoed: int,
                  nonce_a: int) -> list[ProtocolMessage]:
        st = self.state
        if id_d != st.my_id or id_a != msg.sender or msg.sender != st.parent_id:
            return self._drop("unexpected")
        my_nonce = st.pending_nonces.get("up_echo")
        if my_nonce is None or echoed != my_nonce + 1:
            return self._drop("nonce_mismatch")
        if not self._nonce_fresh(id_a, nonce_a):
            return self._drop("nonce_mismatch")
        pending = self._own("pending_nonces")
        del pending["up_echo"]
        self._own("edge_keys")[id_a] = self._edge_key(st.my_id, id_a, my_nonce, nonce_a)
        pending["up_final"] = nonce_a
        return self._maybe_send_step3(_NEXT_STEP[msg.kind])

    def _maybe_send_step3(self, step3: MessageKind) -> list[ProtocolMessage]:
        st = self.state
        if "up_final" not in st.pending_nonces or st.pending_children:
            return []
        if st.role == ROLE_CHECKER:
            # the checker's exchange only authenticates and keys the root edge
            k_up = share = KeyMaterial.zero()
        else:
            # children outside this round fold in from cache; a hole can only
            # occur on edge-keying pre-passes whose values the next round
            # overwrites anyway, so it folds as zero instead of crashing
            zero = KeyMaterial.zero()
            parts = [st.share] + [st.children_received.get(c, (zero, zero))[0]
                                  for c in st.children]
            k_up = xor_combine(parts)
            st.intermediate = k_up
            share = st.share
        nonce_a = self._own("pending_nonces").pop("up_final")
        return [self._seal(step3, st.parent_id, (st.parent_id, st.my_id), st.master_key,
                           st.parent_id, st.my_id, nonce_a + 1, k_up, share)]

    # step 3: a descendant handed up its intermediate key
    def _on_step3(self, msg: ProtocolMessage, id_a: NodeId, id_d: NodeId, echoed: int,
                  k_up: KeyMaterial, share: KeyMaterial) -> list[ProtocolMessage]:
        st = self.state
        if id_a != st.my_id or id_d != msg.sender:
            return self._drop("unexpected")
        expected = st.pending_nonces.get(f"down_echo:{id_d}")
        if expected is None or echoed != expected + 1:
            return self._drop("nonce_mismatch")
        pending = self._own("pending_nonces")
        nonce_d = pending.pop(f"down_seen:{id_d}")
        del pending[f"down_echo:{id_d}"]
        self._own("edge_keys")[id_d] = self._edge_key(id_d, st.my_id, nonce_d, expected)
        if id_d == st.tree.checker:
            return []  # root<->checker exchange carries no key contribution
        if id_d not in st.children:
            return self._drop("unexpected")
        self._own("children_received")[id_d] = (k_up, share)
        self._own("pending_children").discard(id_d)
        if st.role == ROLE_ROOT:
            self._maybe_finish_root()
            return []
        return self._maybe_send_step3(msg.kind)  # one refold never mixes families

    def _maybe_finish_root(self) -> None:
        """Fold the subtree intermediates into z and refresh the local keys."""
        st = self.state
        if st.pending_children or st.role != ROLE_ROOT:
            return
        if any(c not in st.children_received for c in st.children):
            return
        parts = [st.share] + [st.children_received[c][0] for c in st.children]
        st.subkey = xor_combine(parts)
        st.local_keys = {c: st.subkey ^ st.children_received[c][1] for c in st.children}

    # agreement step 1: root broadcast the subkey
    def _on_agree1(self, msg: ProtocolMessage, rid: NodeId, z: KeyMaterial,
                   nonce_root: int) -> list[ProtocolMessage]:
        st = self.state
        if rid != msg.sender or rid != st.tree.root:
            return self._drop("unexpected")
        if not self._nonce_fresh(rid, nonce_root):
            return self._drop("nonce_mismatch")
        st.subkey = z
        self._own("pending_nonces")["agree_root"] = nonce_root
        if st.role == ROLE_CHECKER:
            self.refresh_share()
            nonce_ch = self._await_confirmations(z, st.share)
            return [self._seal(MessageKind.AGREE_STEP2, BROADCAST, (st.my_id,), st.master_key,
                               st.my_id, st.share, nonce_root + 1, nonce_ch)]
        if st.parent_id == st.tree.root and st.share is not None:
            self._own("local_keys")[st.my_id] = z ^ st.share
        return []

    # agreement step 2: checker broadcast its share; compute K and confirm
    def _on_agree2(self, msg: ProtocolMessage, cid: NodeId, share_ch: KeyMaterial,
                   echoed: int, nonce_ch: int) -> list[ProtocolMessage]:
        st = self.state
        if cid != msg.sender or cid != st.tree.checker or st.subkey is None:
            return self._drop("unexpected")
        root_nonce = st.pending_nonces.get("agree_root")
        if root_nonce is None or echoed != root_nonce + 1:
            return self._drop("nonce_mismatch")
        if not self._nonce_fresh(cid, nonce_ch):
            return self._drop("nonce_mismatch")
        return self._confirm(cid, nonce_ch, st.subkey, share_ch)

    def _confirm(self, cid: NodeId, nonce: int, carrier: KeyMaterial,
                 delta: KeyMaterial) -> list[ProtocolMessage]:
        """Member: adopt carrier ^ delta as the session key and confirm it to the checker."""
        st = self.state
        st.session_key, digest = self._confirmation(cid, nonce, carrier, delta)
        return [ProtocolMessage(MessageKind.AGREE_STEP3, st.my_id, cid, (st.my_id, cid), digest)]

    # confirmation digests flow to the checker for both agreement and rekey
    def _on_confirm(self, msg: ProtocolMessage) -> list[ProtocolMessage]:
        st = self.state
        if st.role != ROLE_CHECKER or st.expected_confirm is None:
            return self._drop("unexpected")
        if msg.ids != (msg.sender, st.my_id):
            return self._drop("unexpected")
        if hmac.compare_digest(msg.payload, st.expected_confirm):
            self._own("confirmations").add(msg.sender)
        else:
            self._own("confirm_failures").add(msg.sender)
        return []

    def _on_join_request(self, msg: ProtocolMessage) -> list[ProtocolMessage]:
        return self._drop("join_requests")

    def _on_global_rekey(self, msg: ProtocolMessage, cid: NodeId, fresh: KeyMaterial,
                         nonce_ch: int) -> list[ProtocolMessage]:
        st = self.state
        if cid != msg.sender or cid != st.tree.checker:
            return self._drop("unexpected")
        if not self._nonce_fresh(cid, nonce_ch):
            return self._drop("nonce_mismatch")
        return self._confirm(cid, nonce_ch, st.session_key, fresh)

    def _on_local_rekey1(self, msg: ProtocolMessage, jid: NodeId, fresh: KeyMaterial,
                         nonce_j: int) -> list[ProtocolMessage]:
        st = self.state
        if jid != msg.sender:
            return self._drop("unexpected")
        if not self._nonce_fresh(jid, nonce_j):
            return self._drop("nonce_mismatch")
        # the root commits too; step 3 must prove the new key against nonce_j
        self._own("local_keys")[jid] = st.local_keys[jid] ^ fresh
        self._own("local_rekey_peer")[jid] = nonce_j
        return []

    def _on_local_rekey3(self, msg: ProtocolMessage) -> list[ProtocolMessage]:
        st = self.state
        if msg.sender not in st.local_rekey_peer:  # only the root awaits a step 3
            return self._drop("unexpected")
        want = self._confirm_digest(MessageKind.LOCAL_REKEY_STEP3, msg.sender,
                                    st.local_rekey_peer[msg.sender], st.local_keys[msg.sender])
        if not hmac.compare_digest(msg.payload, want):
            return self._drop("integrity_failures")
        del self._own("local_rekey_peer")[msg.sender]
        return []

    def _on_master_rekey(self, msg: ProtocolMessage, sid: NodeId, salt: KeyMaterial,
                         nonce: int) -> list[ProtocolMessage]:
        st = self.state
        if sid != msg.sender:
            return self._drop("unexpected")
        if not self._nonce_fresh(sid, nonce):
            return self._drop("nonce_mismatch")
        st.master_key = self._roll(st.pending_membership, salt)
        st.pending_membership = None
        return self._forward_master_rekey(salt, st.children)

    def _forward_master_rekey(self, salt: KeyMaterial, receivers) -> list[ProtocolMessage]:
        st = self.state
        out = []
        for child in receivers:
            ek = st.edge_keys.get(child)
            if ek is None:
                continue  # unreachable edge: the orchestrator keys edges first
            nonce = self.nonces.fresh()
            out.append(self._seal(MessageKind.MASTER_REKEY, child, (st.my_id, child), ek,
                                  st.my_id, salt, nonce))
        return out


_HANDLERS = {
    MessageKind.AUTH_STEP1: ProtocolNode._on_step1,
    MessageKind.JOIN_STEP_A: ProtocolNode._on_step1,
    MessageKind.AUTH_STEP2: ProtocolNode._on_step2,
    MessageKind.JOIN_STEP_B: ProtocolNode._on_step2,
    MessageKind.AUTH_STEP3: ProtocolNode._on_step3,
    MessageKind.JOIN_STEP_C: ProtocolNode._on_step3,
    MessageKind.AGREE_STEP1: ProtocolNode._on_agree1,
    MessageKind.AGREE_STEP2: ProtocolNode._on_agree2,
    MessageKind.AGREE_STEP3: ProtocolNode._on_confirm,
    MessageKind.JOIN_REQUEST: ProtocolNode._on_join_request,
    MessageKind.GLOBAL_REKEY: ProtocolNode._on_global_rekey,
    MessageKind.LOCAL_REKEY_STEP1: ProtocolNode._on_local_rekey1,
    MessageKind.LOCAL_REKEY_STEP3: ProtocolNode._on_local_rekey3,
    MessageKind.MASTER_REKEY: ProtocolNode._on_master_rekey,
}

# the kind an exchange step answers with: each family stays in its own kinds
_NEXT_STEP = {MessageKind.AUTH_STEP1: MessageKind.AUTH_STEP2,
              MessageKind.AUTH_STEP2: MessageKind.AUTH_STEP3,
              MessageKind.JOIN_STEP_A: MessageKind.JOIN_STEP_B,
              MessageKind.JOIN_STEP_B: MessageKind.JOIN_STEP_C}


def membership(epoch: int, ids: Iterable[NodeId]) -> tuple[bytes, bytes]:
    """The roster a master-key roll binds: the epoch and the sorted member ids,
    packed once per epoch and shared by every derivation in it."""
    ids = sorted(ids)
    return struct.pack(">Q", epoch), struct.pack(f">{len(ids)}I", *ids)


def derive_master_key(suite: CipherSuite, old: KeyMaterial, roster: tuple[bytes, bytes],
                      salt: bytes = b"") -> KeyMaterial:
    """Hash-chain master key update over a `membership()` roster.

    Joins use the deterministic chain (the joiner is provisioned out of band);
    leaves must pass fresh root entropy as salt, carried to the remaining
    members over per-edge keys the departed member never saw.
    """
    return suite.derive_key(b"master", old.data, *roster, salt)


class Transport:
    """Lossless same-tick delivery with full wire capture.

    Keeps one frame log, `messages` (every frame in send order, as sent,
    before channel()), and the per-receiver index `delivered`. The raw
    `transcript` a radio eavesdropper standing everywhere would hear and the
    oracles' broadcast slices are derived from `messages`. Delivery is
    instantaneous: a session pumps each frame to its receivers as soon as it
    is sent. Subclasses override channel() for fault injection, or
    targets()/peek_targets() for radio semantics.
    """

    def __init__(self):
        self.messages: list[ProtocolMessage] = []
        self.delivered: dict[int, list[ProtocolMessage]] = {}

    @property
    def transcript(self) -> bytes:
        """Every frame sent, as raw wire bytes; one serialization pass per read."""
        return wire.concat_frames(self.messages)

    def channel(self, msg: ProtocolMessage) -> ProtocolMessage | None:
        """The frame as its receivers get it; None when it is lost."""
        return msg

    def targets(self, msg: ProtocolMessage, members: Collection[int]) -> list[int]:
        if msg.receiver == BROADCAST:
            return sorted(m for m in members if m != msg.sender)
        return [msg.receiver] if msg.receiver in members else []

    def peek_targets(self, msg: ProtocolMessage, members: Collection[int]) -> list[int]:
        """Like targets() but with no side effects (no capture, no logs)."""
        return self.targets(msg, members)

    def deliver(self, msg: ProtocolMessage,
                members: Collection[int]) -> list[tuple[int, ProtocolMessage]]:
        """Log `msg`; every (receiver, frame) it reaches, returned together so
        that a pump steps them in a row (`BroadcastMemo` relies on it)."""
        self.messages.append(msg)
        msg = self.channel(msg)
        if msg is None:
            return []
        out = []
        for t in self.targets(msg, members):
            self.delivered.setdefault(t, []).append(msg)
            out.append((t, msg))
        return out


class GroupSession:
    """Drives the node state machines through whole protocol epochs.

    Owns the tree, the connectivity graph snapshot, one ProtocolNode per group
    member (checker included) and a Transport. No graph is changed in place
    (a join or a leave copies the dict and the sets it changes), so `graph`
    may be shared, as a radio cell shares the world's, non-members included:
    every keytree rule reads members only. Each public operation either
    commits a new epoch (returning SessionKeys) or raises a ProtocolAbort
    after rolling back to the pre-epoch state. All five epoch methods
    run their body inside `_epoch()`, the one place a rollback happens.

    Each fact is stored once: `members`, `root` and `checker`, `master_key`
    and `local_keys`, and `epoch` are read-only views of `nodes`, `tree`, the
    root's NodeState and the commit record `keys`. A rollback restores the
    state of every node the epoch touched (`touched`, each node's `record`;
    the others were never written), the node set (a leaver or a dropped
    member comes back, a joiner goes), the tree, the graph and `keys`; the
    views follow.
    It keeps on purpose what must not run backwards: each node's
    `seen_nonces`, so nonces burned during the aborted epoch stay burned;
    `NonceSource.used`; the drop `counters`; every RNG position; and `lives`,
    so a retry, a joiner's included, draws fresh shares and nonces; and the
    nodes' one `memo`, whose entries are pure functions of the inputs they
    are keyed on, so a value derived in an aborted epoch is still right.
    """

    def __init__(self, graph: Graph, root: NodeId, members: set[NodeId], suite: CipherSuite,
                 seed: int, checker: NodeId | None = None, transport: Transport | None = None,
                 unsafe_skip_nonce_checks: bool = False):
        self.suite = suite
        self.seed = seed
        self.graph = graph
        members = set(members)
        self.transport = transport if transport is not None else Transport()
        self.rng = random.Random(sub_seed(seed, "session"))
        master_key = KeyMaterial.random(self.rng)
        if checker is None:
            checker = select_checker(root, self.graph, self.rng, members)
        self.tree = build_tree(root, members, self.graph, checker)
        self.unsafe_skip_nonce_checks = unsafe_skip_nonce_checks
        self.lives: dict[NodeId, int] = {}  # how many nodes each id has had
        self.memo = BroadcastMemo()  # handed to every node by _new_node
        self.nodes = {m: self._new_node(m, master_key) for m in sorted(members)}
        self.keys: SessionKeys | None = None
        self.touched: list[ProtocolNode] | None = None  # the running epoch's, in touch order

    # -- views of the stored state ---------------------------------------------

    @property
    def members(self) -> set[NodeId]:
        return set(self.nodes)

    @property
    def root(self) -> NodeId:
        return self.tree.root

    @property
    def checker(self) -> NodeId:
        return self.tree.checker

    @property
    def master_key(self) -> KeyMaterial:
        return self.nodes[self.root].state.master_key

    @property
    def local_keys(self) -> dict[NodeId, KeyMaterial]:
        return self.nodes[self.root].state.local_keys

    @property
    def epoch(self) -> int:
        return self.keys.epoch if self.keys is not None else 0

    # -- plumbing -------------------------------------------------------------

    def _new_node(self, node_id: NodeId, master: KeyMaterial) -> ProtocolNode:
        # each life of an id has its own stream: node:<id>, then node:<id>/<k>
        life = self.lives.get(node_id, 0)
        self.lives[node_id] = life + 1
        label = f"node:{node_id}/{life}" if life else f"node:{node_id}"
        rng = random.Random(sub_seed(self.seed, label))
        node = ProtocolNode(node_id, self.suite, master, self.tree, rng,
                            unsafe_skip_nonce_checks=self.unsafe_skip_nonce_checks)
        node.memo = self.memo
        return node

    def _touch(self, nid: NodeId) -> ProtocolNode:
        """Node `nid`, to be written: the running epoch records its field dict
        the first time. A shallow copy: the containers stay shared until
        `ProtocolNode._own` copies one, and `seen_nonces` stays shared."""
        node = self.nodes[nid]
        if node.record is None and self.touched is not None:
            node.record = node.state.__dict__.copy()
            self.touched.append(node)
        return node

    def _configure_all(self) -> None:
        for nid in self.nodes:
            self._touch(nid).configure(self.tree)

    def _pump(self, initial: list[ProtocolMessage]) -> None:
        """Deliver `initial` and every frame it provokes, first sent first,
        each to all its receivers in a row: `BroadcastMemo` shares a
        broadcast's derivations among its receivers only because of that order."""
        queue = deque(initial)
        while queue:
            msg = queue.popleft()
            for rcv, delivered in self.transport.deliver(msg, self.nodes.keys()):
                queue.extend(self._touch(rcv).step(delivered))

    @contextmanager
    def _epoch(self):
        """One epoch attempt: the body commits, or an abort rolls it all back.

        This is the only place a rollback happens. The body replaces `nodes`,
        `tree`, `graph` and `keys` instead of changing them in place (KeyTree
        is frozen), so those four are kept by reference. The body writes a
        node only through `_touch`, which records the node's field dict at
        the first touch, and changes a container only through
        `ProtocolNode._own`, which copies it at the first change; so each
        record is the node's pre-epoch state, and an abort reinstates the
        records of the touched nodes, a joiner's included (it leaves with
        the node set), while every other node was never written.
        """
        saved = (self.nodes, self.tree, self.graph, self.keys)
        self.touched = touched = []
        try:
            yield
        except (ProtocolAbort, TreeError):
            self.nodes, self.tree, self.graph, self.keys = saved
            for node in touched:
                node.state = restored = object.__new__(NodeState)
                restored.__dict__ = node.record
            raise
        finally:
            self.touched = None
            for node in touched:
                node.record = None

    def _commit(self) -> SessionKeys:
        # a commit leaves no exchange half open: an answer (step 2 or 3) of
        # this epoch that arrives late meets no pending nonce and is dropped
        for node in self.touched:
            if node.state.pending_nonces:
                node.state.pending_nonces = {}
        # close the checker's confirmation window so stale confirmation
        # replays can never poison a later epoch's verification; a window
        # already closed is left untouched
        ch = self.nodes[self.checker].state
        if ch.expected_confirm is not None or ch.confirmations or ch.confirm_failures:
            self._touch(self.checker)
            ch.expected_confirm = None
            ch.confirmations = set()
            ch.confirm_failures = set()
        self.keys = SessionKeys(gk=self.nodes[self.root].state.session_key,
                                epoch=self.epoch + 1)
        return self.keys

    # -- oracle-facing views ---------------------------------------------------

    def share_ledger(self) -> dict[NodeId, KeyMaterial]:
        """Current contributory shares of every party, checker included."""
        return {nid: node.state.share for nid, node in self.nodes.items()
                if node.state.share is not None}

    def gk_oracle(self) -> KeyMaterial:
        """Independent XOR fold of the share ledger; must equal the GK."""
        return xor_combine(list(self.share_ledger().values()))

    def current_secrets(self) -> set[bytes]:
        """Every key-material value currently live anywhere in the group."""
        return {k.data for node in self.nodes.values() for k in node.state.key_material()}

    # -- protocol phases -------------------------------------------------------

    def _refold(self, step1: MessageKind, fresh: Iterable[NodeId], order: list[NodeId]) -> None:
        """The one bottom-up fold, for establish, join and leave alike.

        Draws new shares for `fresh`, then begins every node of `order` in
        that order (a parent draws its nonces as its children's step 1
        frames arrive, so the order fixes every byte): each awaits its
        children in `order` and hands its fold up, and the root folds z.
        Complete only when the root awaits no child and holds every child's
        fold; a z left from the last epoch does not count."""
        for n in fresh:
            self._touch(n).refresh_share()
        folding = set(order)
        msgs: list[ProtocolMessage] = []
        for n in order:
            awaited = {c for c in self.tree.children.get(n, ()) if c in folding}
            msgs.extend(self._touch(n).begin_exchange(step1, awaited))
        self._pump(msgs)
        root = self.nodes[self.root].state
        missing = {c for c in root.children if c not in root.children_received}
        if root.pending_children or missing or root.subkey is None:
            raise InitiationTimeout(root.pending_children | missing or {self.root})

    def run_key_initiation(self) -> None:
        """Bottom-up auth on every tree edge with fresh member shares; the root folds z."""
        self._refold(MessageKind.AUTH_STEP1, set(self.nodes) - {self.checker}, sorted(self.nodes))

    def _unconfirmed(self) -> set[NodeId]:
        """Members whose confirmation the checker lacks or rejected."""
        ch = self.nodes[self.checker].state
        return (self.members - {self.checker} - ch.confirmations) | ch.confirm_failures

    def run_session_agreement(self) -> KeyMaterial:
        """Root broadcasts z, checker answers with its share, all confirm."""
        self._pump(self._touch(self.root).begin_agreement())
        bad = self._unconfirmed()
        if bad:
            raise CheckerVerificationFailure(bad)
        gk = self.nodes[self.checker].state.session_key
        if gk is None:
            raise CheckerVerificationFailure({self.checker})
        return gk

    def establish(self) -> SessionKeys:
        """First full epoch: key initiation then session agreement."""
        with self._epoch():
            self.run_key_initiation()
            self.run_session_agreement()
            return self._commit()

    def _require_established(self) -> None:
        if self.keys is None:
            raise RekeyFailure("no established epoch; run establish() first")

    # -- membership events ------------------------------------------------------

    def member_join(self, joiner: NodeId, edges: set[NodeId]) -> SessionKeys:
        """Admit a node: rotate the master key, refresh its key path, re-agree."""
        if joiner in self.nodes:
            raise ValueError(f"node {joiner} is already a member")
        self._require_established()
        with self._epoch():
            # a new dict: only the joiner's and its neighbours' sets are copied
            graph = dict(self.graph)
            graph[joiner] = set(graph.get(joiner, ()))
            for e in edges:
                if e in graph:
                    graph[joiner].add(e)
                    graph[e] = graph[e] | {joiner}
            self.graph = graph

            # accept-all policy: the master chain rolls forward once for the
            # whole group (every member holds the root's key at each commit),
            # and the joiner is provisioned with the new key out of band
            roster = membership(self.epoch + 1, [*self.nodes, joiner])
            master = derive_master_key(self.suite, self.master_key, roster)
            for nid in self.nodes:
                self._touch(nid).state.master_key = master
            joiner_node = self._new_node(joiner, master)
            self.nodes = {**self.nodes, joiner: joiner_node}
            self._pump(joiner_node.join_request())

            self.tree = attach_member(self.tree, joiner, self.graph)
            self._configure_all()
            path = set(key_path(self.tree, joiner))
            self._run_path_refresh(fresh=path, reporters=path)
            self.run_session_agreement()
            return self._commit()

    def member_leave(self, leaver: NodeId) -> SessionKeys:
        """Expel a node: re-layer, rotate the master key with fresh entropy
        spread over per-edge keys, refresh affected paths, re-agree."""
        if leaver not in self.nodes:
            raise ValueError(f"node {leaver} is not a member")
        if leaver == self.root:
            raise UnsupportedLeave("the protocol initiator cannot leave")
        self._require_established()
        with self._epoch():
            graph = dict(self.graph)
            for e in graph.pop(leaver, ()):
                graph[e] = graph[e] - {leaver}
            old = self.tree
            # a leaving checker hands over to another one-hop neighbor of the root
            new_checker = (select_checker(self.root, self.graph, self.rng, self.members - {leaver})
                           if leaver == self.checker else None)
            det = detach_member(old, leaver, self.graph, checker=new_checker)
            if new_checker is not None:
                self._touch(new_checker).state.share = None
            self.tree, self.graph = det.tree, graph
            gone = det.dropped | {leaver}
            self.nodes = {n: node for n, node in self.nodes.items() if n not in gone}
            self._configure_all()

            # key every new link to a parent, the checker's to the root included
            links = [*self.tree.parent.items(), (self.checker, self.root)]
            fresh_edges = [(c, p) for c, p in links
                           if self.nodes[c].state.edge_keys.get(p) is None]
            self._pump([m for child, _ in fresh_edges
                        for m in self._touch(child).begin_exchange(MessageKind.AUTH_STEP1, set())])
            for child, parent in fresh_edges:
                if self.nodes[child].state.edge_keys.get(parent) is None:
                    raise InitiationTimeout({child})

            # fresh entropy rides the edge keys so the leaver cannot follow the chain
            salt = KeyMaterial.random(self.rng)
            roster = membership(self.epoch + 1, self.nodes)
            for nid in self.nodes:
                if nid != self.root:
                    self._touch(nid).state.pending_membership = roster
            self._pump(self._touch(self.root).begin_master_rekey(salt, roster))
            stale = [nid for nid, node in self.nodes.items()
                     if node.state.pending_membership is not None]
            if stale:
                raise RekeyFailure(f"master rekey did not reach: {sorted(stale)}")

            # every node that moved, lost a child or must hide material the
            # leaver saw re-reports its fold; only the affected draw new shares
            reporters = set(det.affected)
            for n in self.tree.members():
                if old.children.get(n) != self.tree.children[n] or \
                        old.parent.get(n) != self.tree.parent.get(n):
                    reporters.add(n)
            self._run_path_refresh(fresh=det.affected, reporters=reporters)
            self.run_session_agreement()
            return self._commit()

    def _run_path_refresh(self, fresh: set[NodeId], reporters: set[NodeId]) -> None:
        """Refresh shares for `fresh`, re-fold every path touching `reporters`."""
        fresh = {n for n in fresh if n in self.tree}
        reporters = {n for n in reporters if n in self.tree} | fresh
        involved: set[NodeId] = set()
        for n in reporters:
            involved.update(key_path(self.tree, n))
        self._refold(MessageKind.JOIN_STEP_A, fresh,
                     sorted(involved, key=lambda x: (-self.tree.level[x], x)))

    # -- periodic rekeys ---------------------------------------------------------

    def periodic_global_rekey(self) -> SessionKeys:
        """Checker-driven GK ratchet: GK_new = GK_old xor fresh share."""
        self._require_established()
        with self._epoch():
            checker = self._touch(self.checker)
            self._pump(checker.begin_global_rekey())
            bad = self._unconfirmed()
            if bad:
                raise RekeyFailure(f"global rekey unconfirmed by {sorted(bad)}")
            # absorb the ratchet into the checker's ledger entry so the XOR
            # oracle over shares keeps matching the live GK
            checker.state.share ^= checker.state.session_key ^ self.keys.gk
            return self._commit()

    def periodic_local_rekey(self, member: NodeId) -> KeyMaterial:
        """Level-1 member ratchets its local key with the root: LK xor S''."""
        if member not in self.tree.children.get(self.root, ()):
            raise RekeyFailure(f"node {member} is not a level-1 member")
        node, root = self.nodes[member], self.nodes[self.root]
        if node.state.local_keys.get(member) is None:
            raise RekeyFailure(f"node {member} holds no local key with the root")
        with self._epoch():
            self._pump(self._touch(member).begin_local_rekey())
            lk_member = node.state.local_keys[member]
            lk_root = root.state.local_keys.get(member)
            if member in root.state.local_rekey_peer or lk_root is None or \
                    lk_root.data != lk_member.data:
                raise RekeyFailure(f"local rekey with {member} failed verification")
            self._commit()
            return lk_member


def sub_seed(seed: int, label: str) -> int:
    """The seed of the stream named `label` under `seed`: every stream of a
    run is a path in one tree, such as a cell's `features` or `node:<id>`."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
