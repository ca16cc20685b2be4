"""Local and global response: authenticated map exchange, forwarder choice,
the two-thirds alarm trigger and routing-table quarantine.

Each message is digested, delivered and verified in `_send`, under the
pairwise local keys (map exchange within a one-hop group) or the group key
(global alarms); a digest that fails or a reply that never arrives drops that
party's entry and logs a tamper or loss event, never an exception. Alarms quarantine the flagged node in every
verifying receiver's routing table and reroute around it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .crypto import CipherSuite, KeyMaterial, NonceSource
from .esom import VERDICT_ATTACK, VERDICT_NORMAL
from .keytree import Graph, NodeId, bfs_parents

# summary verdict threshold: a map is attack-dominant past half its window
_DOMINANCE_NUM, _DOMINANCE_DEN = 1, 2
# global alarm threshold: strictly over two thirds
_TRIGGER_NUM, _TRIGGER_DEN = 2, 3

DEFAULT_MIN_WINDOW = 30


class ResponseError(Exception):
    pass


class InsufficientWindow(ResponseError):
    """Too few classified samples to evaluate the alarm trigger."""


class NoSecureNeighbor(ResponseError):
    """Every forwarding candidate is quarantined or attack-dominant."""


@dataclass
class SecurityMap:
    """One node's detector map plus its attack-coverage bookkeeping.

    `attack_count` of the last `window` classified samples hit attack
    regions; `model_bytes` is the serialized detector map the digests bind.
    """

    owner: NodeId
    attack_count: int
    window: int
    epoch: int = 0
    model_bytes: bytes = b""

    def __post_init__(self):
        if self.window < 0 or not 0 <= self.attack_count <= max(self.window, 0):
            raise ValueError("attack_count must lie within the window")

    @property
    def coverage(self) -> float:
        return self.attack_count / self.window if self.window else 0.0

    def to_bytes(self) -> bytes:
        head = struct.pack(">IIIIQ", self.owner, self.epoch, self.attack_count,
                           self.window, len(self.model_bytes))
        return head + self.model_bytes


@dataclass
class GlobalLocalMap:
    """Per-node security summary of a one-hop neighborhood."""

    owner: NodeId
    entries: dict[NodeId, tuple[float, str]]  # node -> (coverage, verdict)
    composed_at: float = 0.0

    def to_bytes(self) -> bytes:
        out = [struct.pack(">IdI", self.owner, self.composed_at, len(self.entries))]
        for nid in sorted(self.entries):
            cov, verdict = self.entries[nid]
            out.append(struct.pack(">IdB", nid, cov, 1 if verdict == VERDICT_ATTACK else 0))
        return b"".join(out)


@dataclass
class RoutingTable:
    owner: NodeId
    next_hop: dict[NodeId, NodeId] = field(default_factory=dict)
    quarantined: set[NodeId] = field(default_factory=set)

    def rebuild(self, graph: Graph) -> None:
        """Shortest-path first hops over the graph minus quarantined nodes."""
        banned = self.quarantined
        self.next_hop = {}
        if self.owner in banned:
            return
        parent = bfs_parents(graph, self.owner, enter=lambda n: n not in banned)
        del parent[self.owner]
        first: dict[NodeId, NodeId] = {}
        for node, up in parent.items():
            first[node] = node if up == self.owner else first[up]
        self.next_hop = first

    def quarantine(self, node: NodeId, graph: Graph) -> None:
        self.quarantined.add(node)
        self.rebuild(graph)


def check_global_trigger(smap: SecurityMap, min_window: int = DEFAULT_MIN_WINDOW) -> bool:
    """True when attack coverage strictly exceeds two thirds of the window."""
    if smap.window < min_window:
        raise InsufficientWindow(
            f"coverage window {smap.window} below the {min_window}-sample minimum")
    return smap.attack_count * _TRIGGER_DEN > smap.window * _TRIGGER_NUM


def coverage_verdict(smap: SecurityMap) -> str:
    return (VERDICT_ATTACK
            if smap.attack_count * _DOMINANCE_DEN > smap.window * _DOMINANCE_NUM
            else VERDICT_NORMAL)


def compose_global_local_map(own: SecurityMap, verified: Mapping[NodeId, SecurityMap],
                             composed_at: float = 0.0) -> GlobalLocalMap:
    """Deterministic per-node summary of the verified one-hop maps."""
    entries = {own.owner: (own.coverage, coverage_verdict(own))}
    for nid, smap in verified.items():
        entries[nid] = (smap.coverage, coverage_verdict(smap))
    return GlobalLocalMap(owner=own.owner, entries=entries, composed_at=composed_at)


def select_forwarding_node(glm: GlobalLocalMap, candidates: set[NodeId],
                           quarantined: set[NodeId] = frozenset()) -> NodeId:
    """Least-coverage non-quarantined, non-attack-dominant candidate."""
    unknown = candidates - set(glm.entries)
    if unknown:
        raise ResponseError(f"candidates missing from the map: {sorted(unknown)}")
    usable = [(glm.entries[c][0], c) for c in candidates
              if c not in quarantined and glm.entries[c][1] != VERDICT_ATTACK]
    if not usable:
        raise NoSecureNeighbor("no candidate is both trusted and unquarantined")
    return min(usable)[1]


# Fault-injection hook: receives (step, sender, receiver, payload, digest) and
# returns possibly altered (payload, digest), or None to lose the message.
Channel = Callable[[str, NodeId, NodeId, bytes, bytes], tuple[bytes, bytes] | None]

Event = tuple[float, str, NodeId, NodeId | None, str]  # time, kind, node, peer, detail

# one fixed tag per step, so no message verifies as another step's
_STEP_TAGS = {"announce": 1, "reply": 2, "summary": 3, "alarm": 4}


def _identity_channel(step, sender, receiver, payload, digest):
    return payload, digest


def _send(suite: CipherSuite, chan: Channel, step: str, sender: NodeId, receiver: NodeId,
          key: KeyMaterial, payload: bytes, nonce: int) -> bool | None:
    """Digest one response message, pass it through `chan` and verify it.

    True when it verifies under `key`, False on a mismatch, None when the
    channel loses it. The digest binds the step, sender, payload and nonce.
    """
    head = struct.pack(">BI", _STEP_TAGS[step], sender)
    tail = struct.pack(">Q", nonce)
    digest = suite.keyed_digest(key, head + payload + tail)
    passed = chan(step, sender, receiver, payload, digest)
    if passed is None:
        return None
    payload, digest = passed
    return suite.verify_keyed_digest(key, head + payload + tail, digest)


@dataclass
class MapExchangeResult:
    glm: GlobalLocalMap
    verified: set[NodeId]
    tampered: set[NodeId]
    missing: set[NodeId]
    events: list[Event] = field(default_factory=list)


def distribute_local_maps(suite: CipherSuite, initiator: NodeId,
                          local_keys: Mapping[NodeId, KeyMaterial],
                          maps: Mapping[NodeId, SecurityMap], nonces: NonceSource,
                          now: float = 0.0,
                          channel: Channel = _identity_channel) -> MapExchangeResult:
    """Four-step authenticated map exchange within a one-hop group.

    The group is the key set of the pairwise `local_keys`. Step 1 broadcasts
    the initiator's map with one keyed digest per neighbor; step 2 collects
    each neighbor's map and digest; step 3 composes the neighborhood summary
    from the entries that verified; step 4 broadcasts it, digested again.
    """
    if initiator not in maps:
        raise ResponseError("initiator has no security map of its own")
    events: list[Event] = []

    def send(step: str, j: NodeId, payload: bytes, nonce: int) -> bool | None:
        sender, receiver = (j, initiator) if step == "reply" else (initiator, j)
        ok = _send(suite, channel, step, sender, receiver, local_keys[j], payload, nonce)
        if ok is None:
            events.append((now, "map_lost", initiator, j, f"{step} lost"))
        elif not ok:
            events.append((now, "map_tamper", receiver, sender, f"{step} digest mismatch"))
        return ok

    nonce1 = nonces.fresh()
    own_bytes = maps[initiator].to_bytes()
    responsive = {j for j in sorted(local_keys) if send("announce", j, own_bytes, nonce1)}

    verified: dict[NodeId, SecurityMap] = {}
    tampered: set[NodeId] = set()
    missing = set(local_keys) - responsive
    for j in sorted(responsive):
        if j not in maps:
            missing.add(j)
            events.append((now, "map_missing", initiator, j, "neighbor has no map"))
            continue
        ok = send("reply", j, maps[j].to_bytes(), nonce1 + 1)
        if ok:
            verified[j] = maps[j]
        elif ok is None:
            missing.add(j)
        else:
            tampered.add(j)

    glm = compose_global_local_map(maps[initiator], verified, composed_at=now)
    glm_bytes = glm.to_bytes()
    for j in sorted(local_keys):
        send("summary", j, glm_bytes, nonce1)
    events.append((now, "map_composed", initiator, None,
                   f"entries={len(glm.entries)} tampered={len(tampered)} missing={len(missing)}"))
    return MapExchangeResult(glm=glm, verified=set(verified), tampered=tampered,
                             missing=missing, events=events)


@dataclass
class AlarmResult:
    victim: NodeId
    accepted: set[NodeId]
    events: list[Event] = field(default_factory=list)


def global_alarm(suite: CipherSuite, victim_map: SecurityMap, gk: KeyMaterial,
                 tables: Mapping[NodeId, RoutingTable], graph: Graph, nonces: NonceSource,
                 now: float = 0.0, channel: Channel = _identity_channel,
                 min_window: int = DEFAULT_MIN_WINDOW) -> AlarmResult:
    """Broadcast a keyed alarm about the attacked node to transmission range.

    Every receiver that verifies the digest under the group key removes the
    victim from its routing table and reroutes; forged or tampered alarms are
    ignored per receiver.
    """
    victim = victim_map.owner
    if not check_global_trigger(victim_map, min_window=min_window):
        raise ResponseError("alarm raised without a triggering map")
    events: list[Event] = []
    nonce = nonces.fresh()
    map_bytes = victim_map.to_bytes()
    in_range = sorted(n for n in graph.get(victim, ()) if n in tables)
    accepted: set[NodeId] = set()
    events.append((now, "alarm", victim, None, f"coverage={victim_map.coverage:.3f}"))
    for r in in_range:
        ok = _send(suite, channel, "alarm", victim, r, gk, map_bytes, nonce)
        if ok is None:
            events.append((now, "alarm_lost", victim, r, "alarm lost"))
        elif ok:
            tables[r].quarantine(victim, graph)
            accepted.add(r)
            events.append((now, "quarantine", r, victim, "victim removed from routes"))
        else:
            events.append((now, "alarm_tamper", r, victim, "alarm digest mismatch"))
    return AlarmResult(victim=victim, accepted=accepted, events=events)


def format_events(events) -> str:
    """Newline-delimited `time,event_kind,node,peer,detail` records."""
    lines = []
    for t, kind, node, peer, detail in events:
        lines.append(f"{t:.3f},{kind},{node},{'' if peer is None else peer},{detail}")
    return "\n".join(lines) + ("\n" if lines else "")
