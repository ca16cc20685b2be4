"""Local and global response: authenticated map exchange, forwarder choice,
the two-thirds alarm trigger and routing-table quarantine.

Map payloads travel with keyed digests under the pairwise local keys (map
exchange within a one-hop group) or the group key (global alarms); a digest
that fails or a reply that never arrives drops that party's entry and logs a
tamper event, never an exception. Alarms quarantine the flagged node in every
verifying receiver's routing table and reroute around it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .crypto import CipherSuite, KeyMaterial, NonceSource
from .keytree import Graph, NodeId, bfs_parents

VERDICT_NORMAL = "normal"
VERDICT_ATTACK = "attack"

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


def _identity_channel(step, sender, receiver, payload, digest):
    return payload, digest


@dataclass
class MapExchangeResult:
    glm: GlobalLocalMap
    verified: set[NodeId]
    tampered: set[NodeId]
    missing: set[NodeId]
    events: list[tuple[float, str, NodeId, NodeId | None, str]] = field(default_factory=list)


def distribute_local_maps(suite: CipherSuite, initiator: NodeId, neighbors: set[NodeId],
                          local_keys: Mapping[NodeId, KeyMaterial],
                          maps: Mapping[NodeId, SecurityMap], nonces: NonceSource,
                          now: float = 0.0, channel: Channel | None = None) -> MapExchangeResult:
    """Four-step authenticated map exchange within a one-hop group.

    Step 1 broadcasts the initiator's map with one keyed digest per neighbor
    (the local keys are pairwise); step 2 collects each neighbor's map and
    digest; step 3 composes the neighborhood summary from the entries that
    verified; step 4 broadcasts the summary, digested per neighbor again.
    """
    if initiator not in maps:
        raise ResponseError("initiator has no security map of its own")
    chan = channel or _identity_channel
    events: list[tuple[float, str, NodeId, NodeId | None, str]] = []
    keyed = {j: local_keys[j] for j in neighbors if j in local_keys}
    for j in neighbors - set(keyed):
        events.append((now, "map_no_key", initiator, j, "no pairwise local key"))

    nonce1 = nonces.fresh()
    own_bytes = maps[initiator].to_bytes()
    responsive: set[NodeId] = set()
    for j, lk in sorted(keyed.items()):
        digest = suite.keyed_digest(lk, _digest_input(initiator, own_bytes, nonce1))
        passed = chan("announce", initiator, j, own_bytes, digest)
        if passed is None:
            events.append((now, "map_lost", initiator, j, "announce lost"))
            continue
        payload, dig = passed
        if suite.verify_keyed_digest(lk, _digest_input(initiator, payload, nonce1), dig):
            responsive.add(j)
        else:
            events.append((now, "map_tamper", j, initiator, "announce digest mismatch"))

    verified: dict[NodeId, SecurityMap] = {}
    tampered: set[NodeId] = set()
    missing = set(keyed) - responsive
    for j in sorted(responsive):
        if j not in maps:
            missing.add(j)
            events.append((now, "map_missing", initiator, j, "neighbor has no map"))
            continue
        reply_bytes = maps[j].to_bytes()
        digest = suite.keyed_digest(keyed[j], _digest_input(j, reply_bytes, nonce1 + 1))
        passed = chan("reply", j, initiator, reply_bytes, digest)
        if passed is None:
            missing.add(j)
            events.append((now, "map_lost", initiator, j, "reply lost"))
            continue
        payload, dig = passed
        if suite.verify_keyed_digest(keyed[j], _digest_input(j, payload, nonce1 + 1), dig):
            verified[j] = maps[j]
        else:
            tampered.add(j)
            events.append((now, "map_tamper", initiator, j, "reply digest mismatch"))

    glm = compose_global_local_map(maps[initiator], verified, composed_at=now)
    glm_bytes = glm.to_bytes()
    for j, lk in sorted(keyed.items()):
        digest = suite.keyed_digest(lk, _digest_input(initiator, glm_bytes, nonce1))
        passed = chan("summary", initiator, j, glm_bytes, digest)
        if passed is None:
            events.append((now, "map_lost", initiator, j, "summary lost"))
            continue
        payload, dig = passed
        if not suite.verify_keyed_digest(lk, _digest_input(initiator, payload, nonce1), dig):
            events.append((now, "map_tamper", j, initiator, "summary digest mismatch"))
    events.append((now, "map_composed", initiator, None,
                   f"entries={len(glm.entries)} tampered={len(tampered)} missing={len(missing)}"))
    return MapExchangeResult(glm=glm, verified=set(verified), tampered=tampered,
                             missing=missing, events=events)


def _digest_input(node: NodeId, payload: bytes, nonce_value: int) -> bytes:
    return struct.pack(">I", node) + payload + struct.pack(">Q", nonce_value)


@dataclass
class AlarmResult:
    victim: NodeId
    accepted: set[NodeId]
    events: list[tuple[float, str, NodeId, NodeId | None, str]] = field(default_factory=list)


def global_alarm(suite: CipherSuite, victim_map: SecurityMap, gk: KeyMaterial,
                 tables: Mapping[NodeId, RoutingTable], graph: Graph, nonces: NonceSource,
                 now: float = 0.0, channel: Channel | None = None,
                 min_window: int = DEFAULT_MIN_WINDOW) -> AlarmResult:
    """Broadcast a keyed alarm about the attacked node to transmission range.

    Every receiver that verifies the digest under the group key removes the
    victim from its routing table and reroutes; forged or tampered alarms are
    ignored per receiver.
    """
    victim = victim_map.owner
    if not check_global_trigger(victim_map, min_window=min_window):
        raise ResponseError("alarm raised without a triggering map")
    chan = channel or _identity_channel
    events: list[tuple[float, str, NodeId, NodeId | None, str]] = []
    nonce = nonces.fresh()
    map_bytes = victim_map.to_bytes()
    digest = suite.keyed_digest(gk, _digest_input(victim, map_bytes, nonce))
    in_range = sorted(n for n in graph.get(victim, ()) if n in tables)
    accepted: set[NodeId] = set()
    events.append((now, "alarm", victim, None, f"coverage={victim_map.coverage:.3f}"))
    for r in in_range:
        passed = chan("alarm", victim, r, map_bytes, digest)
        if passed is None:
            events.append((now, "alarm_lost", victim, r, "alarm lost"))
            continue
        payload, dig = passed
        if suite.verify_keyed_digest(gk, _digest_input(victim, payload, nonce), dig):
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
