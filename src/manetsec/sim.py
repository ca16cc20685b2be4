"""Deterministic simulated MANET: placement, random-waypoint mobility,
range-based radio delivery with adversary hooks, a parametric traffic-feature
stream for packet-dropping attackers, and whole-scenario orchestration.

The radio layer replaces none of the protocol logic: group key epochs run
through the same node state machines, only message delivery goes through
range checks, flooding for broadcasts, eavesdropper capture and replayer
re-injection. Feature vectors come from a parametric generator (baseline
distributions, with per-feature shifts when a source's route crosses an
active dropper) instead of a full TCP/routing stack; effect sizes are
configuration, not claims.

Everything is driven by one scenario seed: same config and seed, same bytes
out.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import deque
from collections.abc import Callable, Collection
from dataclasses import dataclass, field, replace

import numpy as np

from .crypto import CipherSuite, NonceSource
from .keytree import Graph, NodeId, TreeError, bfs_parents
from .protocol import GroupSession, ProtocolAbort, Transport, _sub_seed
from . import adversary as adv
from . import esom
from . import response as resp
from .wire import BROADCAST, ProtocolMessage, concat_frames

DROPPER = "dropper"
EAVESDROPPER = "eavesdropper"
REPLAYER = "replayer"


class ScenarioError(Exception):
    """Configuration problem; message carries file/line context when known."""


@dataclass
class MobilityConfig:
    speed_min: float = 0.0
    speed_max: float = 10.0
    pause_time: float = 0.0

    def validate(self):
        if not 0 <= self.speed_min <= self.speed_max:
            raise ScenarioError("need 0 <= speed_min <= speed_max")
        if self.pause_time < 0:
            raise ScenarioError("pause_time must be non-negative")


@dataclass
class TrafficConfig:
    generators: int = 20
    destinations: int = 10
    mean_payload: float = 512.0
    attack_start: float = 50.0
    attack_end: float = 200.0
    sample_interval: float = 1.0
    effect_size: float = 4.0

    def validate(self, duration: float):
        if self.generators < 1 or self.destinations < 1:
            raise ScenarioError("traffic needs at least one generator and destination")
        if not 0 <= self.attack_start <= self.attack_end <= duration:
            raise ScenarioError("attack window must fit inside the run duration")
        if self.sample_interval <= 0:
            raise ScenarioError("sample_interval must be positive")


@dataclass
class ScheduleEvent:
    time: float
    kind: str          # "join" | "leave" | "global_rekey" | "local_rekey"
    node: NodeId | None = None


@dataclass
class ScenarioConfig:
    node_count: int = 50
    area_width: float = 1800.0
    area_height: float = 1000.0
    range_m: float = 250.0
    duration: float = 200.0
    root: NodeId = 0
    mobility: MobilityConfig = field(default_factory=MobilityConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    droppers: tuple[NodeId, ...] = ()
    eavesdroppers: tuple[NodeId, ...] = ()
    replayers: tuple[NodeId, ...] = ()
    replay_at: tuple[float, ...] = ()
    som: esom.SomConfig = field(default_factory=lambda: esom.SomConfig(rows=12, cols=16, epochs=10))
    coverage_window: int = 30
    schedule: tuple[ScheduleEvent, ...] = ()
    pause_times: tuple[float, ...] = ()      # sweep; empty = single mobility.pause_time
    dropper_counts: tuple[int, ...] = ()     # sweep; empty = the explicit droppers list
    seed: int | None = None

    def validate(self):
        if self.node_count < 2:
            raise ScenarioError("need at least two nodes")
        if self.area_width <= 0 or self.area_height <= 0 or self.range_m <= 0:
            raise ScenarioError("area and range must be positive")
        if not 0 <= self.root < self.node_count:
            raise ScenarioError("root must be one of the initial node ids")
        self.mobility.validate()
        self.traffic.validate(self.duration)
        try:
            self.som.validate()
        except ValueError as e:
            raise ScenarioError(str(e)) from None
        if self.coverage_window < 1:
            raise ScenarioError("coverage_window must be at least 1")
        self.adversary_roles()
        for ev in self.schedule:
            if not 0 <= ev.time <= self.duration:
                raise ScenarioError(f"schedule event at {ev.time} outside the run")
            if ev.node is not None and not 0 <= ev.node < BROADCAST:
                raise ScenarioError(f"schedule node id {ev.node} outside 0..{BROADCAST - 1}")
        for t in self.replay_at:
            if not 0 <= t <= self.duration:
                raise ScenarioError(f"replay at {t} outside the run")
        if any(p < 0 for p in self.pause_times):
            raise ScenarioError(f"sweep pause time {min(self.pause_times)} must be non-negative")
        most = min(self.node_count - 2, len(self._dropper_pool()))
        for c in self.dropper_counts:
            if not 0 <= c <= most:
                raise ScenarioError(f"dropper sweep count {c} outside 0..{most}")

    def adversary_roles(self) -> dict[NodeId, str]:
        """Adversary id -> kind: droppers, eavesdroppers, replayers, the order replayers fire in."""
        role: dict[NodeId, str] = {}
        for kind, group in ((DROPPER, self.droppers), (EAVESDROPPER, self.eavesdroppers),
                            (REPLAYER, self.replayers)):
            for n in group:
                if not 0 <= n < self.node_count:
                    raise ScenarioError(f"adversary id {n} outside the initial roster")
                if role.setdefault(n, kind) != kind:
                    raise ScenarioError(f"node {n} holds more than one adversary role")
        return role

    def _dropper_pool(self) -> list[NodeId]:
        """The ids a dropper sweep draws from, lowest first: neither the root
        nor an eavesdropper or replayer."""
        taken = {self.root, *self.eavesdroppers, *self.replayers}
        return [n for n in range(self.node_count) if n not in taken]


@dataclass
class World:
    """Mutable simulation state; advance with mobility_step.

    `mobility_step`, `add_node` and `remove_node` bump `version`. One cache
    entry, `(version, graph, hop maps)`, holds what the radio layer derives
    from a version: `graph()` builds the in-range adjacency once per version,
    and `hops(root)` builds the hop-count map rooted at a node on the first
    request in that version. A direct write to `positions` bumps nothing, so
    code that makes one calls `connectivity(world)` instead.
    """

    ids: list[NodeId]
    positions: np.ndarray          # (n, 2) meters
    waypoints: np.ndarray          # (n, 2)
    speeds: np.ndarray             # (n,) m/s
    pause_until: np.ndarray        # (n,) seconds
    area: tuple[float, float]
    range_m: float
    mobility: MobilityConfig
    rng: np.random.Generator
    adversaries: dict[NodeId, str] = field(default_factory=dict)  # id -> adversary kind
    time: float = 0.0
    version: int = field(default=0, init=False, repr=False, compare=False)
    _topology: tuple[int, Graph, dict[NodeId, dict[NodeId, int]]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def index(self, node: NodeId) -> int:
        return self.ids.index(node)

    def _current(self) -> tuple[int, Graph, dict[NodeId, dict[NodeId, int]]]:
        if self._topology is None or self._topology[0] != self.version:
            self._topology = (self.version, connectivity(self), {})
        return self._topology

    def graph(self) -> Graph:
        """`connectivity(self)` for the current version, built once and shared
        by every caller; callers must not mutate it."""
        return self._current()[1]

    def hops(self, root: NodeId) -> dict[NodeId, int]:
        """`hop_map(self.graph(), root)`, built once per version; read-only."""
        _, graph, maps = self._current()
        if root not in maps:
            maps[root] = hop_map(graph, root)
        return maps[root]

    def add_node(self, node: NodeId, position: np.ndarray) -> None:
        self.version += 1
        self.ids.append(node)
        self.positions = np.vstack([self.positions, position[None, :]])
        self.waypoints = np.vstack([self.waypoints, position[None, :]])
        self.speeds = np.append(self.speeds, 0.0)
        self.pause_until = np.append(self.pause_until, self.time + self.mobility.pause_time)

    def remove_node(self, node: NodeId) -> None:
        idx = self.index(node)
        self.version += 1
        self.ids.pop(idx)
        self.positions = np.delete(self.positions, idx, axis=0)
        self.waypoints = np.delete(self.waypoints, idx, axis=0)
        self.speeds = np.delete(self.speeds, idx)
        self.pause_until = np.delete(self.pause_until, idx)
        self.adversaries.pop(node, None)


def init_world(config: ScenarioConfig, seed: int) -> World:
    """Uniform random placement; every node starts in its initial pause."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    n = config.node_count
    pos = np.column_stack([
        rng.uniform(0.0, config.area_width, size=n),
        rng.uniform(0.0, config.area_height, size=n),
    ])
    return World(
        ids=list(range(n)),
        positions=pos,
        waypoints=pos.copy(),
        speeds=np.zeros(n),
        pause_until=np.full(n, config.mobility.pause_time, dtype=float),
        area=(config.area_width, config.area_height),
        range_m=config.range_m,
        mobility=config.mobility,
        rng=rng,
        adversaries=config.adversary_roles(),
    )


def mobility_step(world: World, dt: float) -> World:
    """Random waypoint: head to the target, pause on arrival, pick anew.

    The loop runs on Python floats; each operation is the IEEE one the
    per-row numpy form did, so every position is the same to the bit.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    m = world.mobility
    w, h = world.area
    now, rng = world.time, world.rng
    positions, waypoints = world.positions.tolist(), world.waypoints.tolist()
    speeds, pause_until = world.speeds.tolist(), world.pause_until.tolist()
    for i, (px, py) in enumerate(positions):
        if now < pause_until[i]:
            continue
        wx, wy = waypoints[i]
        gx, gy = wx - px, wy - py
        dist = math.hypot(gx, gy)
        step = speeds[i] * dt
        if dist <= step or dist == 0.0:
            positions[i] = waypoints[i]
            pause_until[i] = now + m.pause_time
            waypoints[i] = [rng.uniform(0.0, w), rng.uniform(0.0, h)]
            speeds[i] = rng.uniform(m.speed_min, m.speed_max)
        else:
            f = step / dist
            positions[i] = [px + gx * f, py + gy * f]
    if positions:
        world.positions[:] = positions
        world.waypoints[:] = waypoints
        world.speeds[:] = speeds
        world.pause_until[:] = pause_until
    world.time += dt
    world.version += 1
    return world


def connectivity(world: World) -> Graph:
    """Undirected in-range adjacency; the 250 m boundary itself connects.

    Uncached; `World.graph()` keeps one per world version, next to that
    version's hop maps. The squared distances are summed in place, two (n, n)
    temporaries in all, in the order `dx*dx + dy*dy`. Each neighbour set is
    filled in ascending index order.
    """
    x, y = world.positions.T
    d2 = np.subtract.outer(x, x)
    d2 *= d2
    dy = np.subtract.outer(y, y)
    dy *= dy
    d2 += dy
    within = d2 <= world.range_m * world.range_m
    np.fill_diagonal(within, False)
    neighbours = np.asarray(world.ids, dtype=np.int64)[np.nonzero(within)[1]].tolist()
    graph: Graph = {}
    start = 0
    for nid, end in zip(world.ids, np.cumsum(within.sum(axis=1)).tolist()):
        graph[nid] = set(neighbours[start:end])
        start = end
    return graph


class RadioTransport(Transport):
    """Range-checked delivery over the live world.

    Each frame reads the world's one graph and hop maps for its current
    version (`World.graph()`, `World.hops()`), so a pump between two world
    changes builds the topology once and each hop map at most once. Each
    radio transmission reaches exactly the nodes within range of the
    transmitter. Unicasts to a distant receiver are relayed along the
    lowest-ID shortest in-range path (the ad hoc routing layer such networks
    run), broadcasts flood hop-by-hop through the connected component: the
    key set of the sender's hop map. Adversaries listen per hop:
    eavesdroppers record every message some transmitting hop put in their
    range, replayers store what they hear for later re-injection. Droppers
    run the protocol faithfully, so control messages are never dropped here.
    """

    def __init__(self, world: World):
        super().__init__()
        self.world = world
        self.captured: dict[NodeId, list[ProtocolMessage]] = {}
        self.undelivered = 0

    def _capture(self, hearers, msg: ProtocolMessage) -> None:
        for nid, kind in self.world.adversaries.items():
            if kind in (EAVESDROPPER, REPLAYER) and nid in hearers:
                self.captured.setdefault(nid, []).append(msg)

    def targets(self, msg: ProtocolMessage, members: Collection[int]) -> list[int]:
        out, hearers, reachable = self._resolve(msg, members)
        self._capture(hearers, msg)
        if not reachable:
            self.undelivered += 1
        return out

    def peek_targets(self, msg: ProtocolMessage, members: Collection[int]) -> list[int]:
        return self._resolve(msg, members)[0]

    def _resolve(self, msg: ProtocolMessage, members: Collection[int]):
        world = self.world
        graph = world.graph()
        if msg.receiver == BROADCAST:
            component = world.hops(msg.sender).keys() if msg.sender in graph else set()
            return (sorted(m for m in members if m != msg.sender and m in component),
                    component, True)
        route = (shortest_route(graph, msg.sender, msg.receiver, world.hops)
                 if msg.sender in graph and msg.receiver in graph else None)
        if route is None or msg.receiver not in members:
            return [], set(graph.get(msg.sender, ())) | {msg.sender}, False
        hearers: set[NodeId] = set()
        for hop in route[:-1]:  # every forwarding hop transmits once
            hearers.add(hop)
            hearers.update(graph.get(hop, ()))
        return [msg.receiver], hearers, True


# -- parametric feature stream -------------------------------------------------

_BASELINES = {
    "nav": (0.30, 0.05),
    "tx_rate": (40.0, 5.0),
    "rx_rate": (38.0, 5.0),
    "rts_retx_rate": (0.05, 0.015),
    "data_retx_rate": (0.05, 0.015),
    "active_neighbors": (0.0, 0.5),   # mean comes from the live degree
    "forwarding_nodes": (0.0, 0.5),   # mean comes from the live route length
}


def hop_map(graph: Graph, root: NodeId) -> dict[NodeId, int]:
    """BFS hop count from `root` to every node it reaches, root included."""
    hops = {root: 0}
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        level = hops[node] + 1
        for nb in graph.get(node, ()):
            if nb not in hops:
                hops[nb] = level
                frontier.append(nb)
    return hops


def shortest_route(graph: Graph, src: NodeId, dst: NodeId,
                   hops: Callable[[NodeId], dict[NodeId, int]] | None = None,
                   ) -> list[NodeId] | None:
    """Lowest-ID BFS route; None when the destination is unreachable.

    That route is the lexicographically least shortest path, so it is the
    greedy walk from `src` that always steps to the lowest-ID neighbour one
    hop closer to `dst`. The walk reads the hop map rooted at `dst`, from
    `hops(dst)` (`World.hops` caches one per version) or built here. Routes
    of zero and one hop need no map.
    """
    if src == dst:
        return [src]
    if dst in graph.get(src, ()):
        return [src, dst]
    to_dst = hops(dst) if hops is not None else hop_map(graph, dst)
    if src not in to_dst:
        return None
    path = [src]
    for level in range(to_dst[src] - 1, 0, -1):
        path.append(min(nb for nb in graph[path[-1]] if to_dst.get(nb) == level))
    path.append(dst)
    return path


def traffic_pairs(members: list[NodeId], traffic: TrafficConfig) -> list[tuple[NodeId, NodeId]]:
    """Deterministic source/destination assignment from the sorted roster."""
    members = sorted(members)
    sources = members[: min(traffic.generators, len(members))]
    dests = members[-min(traffic.destinations, len(members)):]
    return [(s, dests[i % len(dests)]) for i, s in enumerate(sources)]


def generate_features(world: World, traffic: TrafficConfig,
                      pairs: list[tuple[NodeId, NodeId]], rng: np.random.Generator,
                      ) -> dict[NodeId, tuple[np.ndarray, bool]]:
    """One interval of per-source samples plus ground truth, on the world's
    current graph and hop maps.

    A source is under attack when the clock is inside the attack window and
    some intermediate hop of its current route is a dropper; then rx_rate and
    forwarding count shift down and the data retransmission rate shifts up by
    effect_size standard deviations.
    """
    t = world.time
    in_window = traffic.attack_start <= t < traffic.attack_end
    payload_scale = traffic.mean_payload / 512.0
    graph = world.graph()
    out: dict[NodeId, tuple[np.ndarray, bool]] = {}
    for src, dst in pairs:
        route = shortest_route(graph, src, dst, world.hops)
        hops = len(route) - 1 if route else 0
        intermediates = route[1:-1] if route else []
        attacked = bool(in_window and any(world.adversaries.get(h) == DROPPER
                                          for h in intermediates))
        draw = {name: rng.normal(mu, sd) for name, (mu, sd) in _BASELINES.items()}
        vec = np.array([
            max(draw["nav"] * payload_scale, 0.0),
            max(draw["tx_rate"], 0.0),
            max(draw["rx_rate"], 0.0),
            min(max(draw["rts_retx_rate"], 0.0), 1.0),
            min(max(draw["data_retx_rate"], 0.0), 1.0),
            max(len(graph.get(src, ())) + draw["active_neighbors"], 0.0),
            max(hops + draw["forwarding_nodes"], 0.0),
        ])
        if attacked:
            eff = traffic.effect_size
            vec[2] = max(vec[2] - eff * _BASELINES["rx_rate"][1], 0.0)
            vec[4] = min(max(vec[4] + eff * _BASELINES["data_retx_rate"][1], 0.0), 1.0)
            vec[6] = max(vec[6] - eff * _BASELINES["forwarding_nodes"][1], 0.0)
        out[src] = (vec, attacked)
    return out


# -- scenario orchestration -----------------------------------------------------

@dataclass
class MetricsReport:
    columns: tuple[str, ...]
    rows: list[dict]
    events: list[tuple[float, str, object, object, str]]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            cells = []
            for c in self.columns:
                v = row.get(c)
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(f"{v:.6g}")
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def trace_text(self) -> str:
        return resp.format_events(self.events)


_COLUMNS = (
    "pause_time", "dropper_count", "members", "unreachable",
    "epochs_attempted", "epochs_succeeded", "epochs_aborted",
    "train_samples", "test_samples",
    "detection_rate", "false_alarm_rate", "unclassified_fraction",
    "alarms", "quarantined_nodes", "tamper_events",
    "eavesdrop_secret_hits", "replay_state_changes", "undelivered_unicasts",
)


def run_scenario(config: ScenarioConfig, seed: int | None = None) -> MetricsReport:
    """Execute every sweep cell of the scenario; one metrics row per cell."""
    config.validate()
    if seed is None:
        seed = config.seed
    if seed is None:
        raise ScenarioError("a seed is required for a reproducible run")
    pause_values = config.pause_times or (config.mobility.pause_time,)
    dropper_values = config.dropper_counts or (None,)
    rows, events = [], []
    for pause in pause_values:
        for dcount in dropper_values:
            cell_cfg = replace(config, mobility=replace(config.mobility, pause_time=pause))
            if dcount is not None:
                cell_cfg = replace(cell_cfg, droppers=tuple(config._dropper_pool()[:dcount]))
            # float() so that pause 20 and 20.0 seed the same cell
            row, ev = _run_cell(cell_cfg, _sub_seed(seed, f"{float(pause)}/{dcount}"))
            row["pause_time"] = pause
            row["dropper_count"] = len(cell_cfg.droppers)
            rows.append(row)
            events.extend(ev)
    return MetricsReport(columns=_COLUMNS, rows=rows, events=events)


def _run_cell(config: ScenarioConfig, seed: int):
    world = init_world(config, seed)
    suite = CipherSuite()
    feat_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFEA7]))
    events: list[tuple[float, str, object, object, str]] = []
    row: dict = {c: None for c in _COLUMNS}

    graph = world.graph()
    members = set(world.hops(config.root))
    unreachable = set(world.ids) - members
    transport = RadioTransport(world)

    # the checker sits outside the tree, so members that can only reach the
    # root through it would fall out of the group; the run picks the
    # least-partitioning one-hop neighbor (the root may reselect checkers)
    session = None
    if len(members) > 1:
        checker, stranded = _least_partitioning_checker(config.root, graph, members)
        unreachable |= stranded
        members -= stranded
        session = GroupSession(graph, config.root, members, suite, seed,
                               transport=transport, checker=checker)
    else:
        events.append((0.0, "epoch_abort", "establish", None,
                       "root is isolated; no group can form"))
    for n in sorted(unreachable):
        events.append((0.0, "out_of_group", n, None, "no tree path to the root"))
    epochs_succeeded = epochs_aborted = 0
    secrets: set[bytes] = set()

    def attempt(label, fn):
        nonlocal epochs_succeeded, epochs_aborted
        try:
            fn()
            epochs_succeeded += 1
            secrets.update(session.current_secrets())
            events.append((world.time, label, session.epoch, None, "epoch committed"))
            return True
        except (ProtocolAbort, TreeError) as e:
            epochs_aborted += 1
            events.append((world.time, "epoch_abort", label, None, str(e)))
            return False

    if session is not None:
        attempt("establish", session.establish)
        events.append((0.0, "tree_built", session.root, session.checker,
                       f"height={session.tree.height} members={len(session.tree.members())}"))
    else:
        epochs_aborted += 1

    schedule = sorted(config.schedule, key=lambda e: (e.time, e.kind, e.node or -1))
    due = deque(schedule)
    replay_due = deque(sorted(config.replay_at))
    replay_changes = 0
    samples: list[tuple[NodeId, np.ndarray, bool]] = []

    # events and replays due at the end of the run still apply; only the
    # feature ticks stop there
    t = 0.0
    while True:
        while due and due[0].time <= t:
            ev = due.popleft()
            if session is not None:
                _apply_schedule_event(ev, session, world, events, attempt)
        while replay_due and replay_due[0] <= t:
            replay_due.popleft()
            if session is not None:
                replay_changes += _replayers_fire(session, world, transport, events)
        if t >= config.duration:
            break
        active = sorted(session.members) if session is not None else sorted(world.ids)
        pairs = traffic_pairs(active, config.traffic)
        for src, (vec, attacked) in generate_features(
                world, config.traffic, pairs, feat_rng).items():
            samples.append((src, vec, attacked))
        mobility_step(world, config.traffic.sample_interval)
        t = world.time

    # detector: stratified even/odd split so both halves see both phases
    row.update(_detect_and_respond(config, suite, session, world, samples, events, seed))

    # adversary verdicts; unscheduled replayers dump their whole capture at
    # the end of the run
    if session is not None and not config.replay_at:
        replay_changes += _replayers_fire(session, world, transport, events)
    eaves_hits = 0
    for nid, kind in world.adversaries.items():
        if kind == EAVESDROPPER:
            blob = concat_frames(transport.captured.get(nid, []))
            eaves_hits += adv.scan_for_secrets(blob, secrets)

    row.update({
        "members": len(session.members) if session is not None else 0,
        "unreachable": len(unreachable),
        "epochs_attempted": epochs_succeeded + epochs_aborted,
        "epochs_succeeded": epochs_succeeded,
        "epochs_aborted": epochs_aborted,
        "eavesdrop_secret_hits": eaves_hits,
        "replay_state_changes": replay_changes,
        "undelivered_unicasts": transport.undelivered,
    })
    return row, events


def _least_partitioning_checker(root: NodeId, graph: Graph,
                                members: set[NodeId]) -> tuple[NodeId, set[NodeId]]:
    """Checker candidate whose tree exclusion strands the fewest members."""
    candidates = sorted(n for n in graph.get(root, ()) if n in members)
    if not candidates:
        raise ScenarioError(f"root {root} has no one-hop neighbor to act as checker")
    best: tuple[int, NodeId, set[NodeId]] | None = None
    for cand in candidates:
        body = members - {cand}
        stranded = body - bfs_parents(graph, root, enter=body.__contains__).keys()
        if best is None or (len(stranded), cand) < (best[0], best[1]):
            best = (len(stranded), cand, stranded)
    return best[1], best[2]


def _replayers_fire(session: GroupSession, world: World, transport: "RadioTransport",
                    events) -> int:
    """Re-inject everything each replayer has captured so far.

    A replay is the same node processing the same message twice, so only
    nodes that received the original count (late first delivery of a lost
    message is a different, self-healing event). Returns the number of
    re-injections that moved any key state; a sound protocol yields zero.
    """
    changes = 0
    got_it = {m: {id(x) for x in msgs} for m, msgs in transport.delivered.items()}
    for nid, kind in world.adversaries.items():
        if kind != REPLAYER:
            continue
        # snapshot first: re-sending makes the transport capture again
        stored = list(transport.captured.get(nid, ()))
        for msg in stored:
            victims = [m for m in transport.peek_targets(msg, session.nodes.keys())
                       if id(msg) in got_it.get(m, ())]
            changes += adv.replay_moves_state(session, msg, victims)
        if stored:
            events.append((world.time, "replay_burst", nid, None,
                           f"re-injected {len(stored)} captured messages"))
    return changes


def _apply_schedule_event(ev: ScheduleEvent, session: GroupSession, world: World,
                          events, attempt) -> None:
    if ev.kind == "join":
        nid = ev.node
        if nid is None or nid in session.members:
            events.append((world.time, "epoch_abort", "join", nid, "bad join target"))
            return
        if nid not in world.ids:
            # spawn the newcomer beside the lowest-id member so it lands in
            # range; a node already in the world joins where it is
            anchor = min(session.members)
            base = world.positions[world.index(anchor)]
            offset = world.rng.uniform(-world.range_m / 4, world.range_m / 4, size=2)
            world.add_node(nid, np.clip(base + offset, (0, 0), world.area))
        session.graph = world.graph()
        edges = session.graph.get(nid, set()) & session.members
        if attempt("join", lambda: session.member_join(nid, edges)):
            events.append((world.time, "join", nid, None, f"edges={sorted(edges)}"))
    elif ev.kind == "leave":
        nid = ev.node
        if nid is None or nid not in session.members or nid == session.root:
            events.append((world.time, "epoch_abort", "leave", nid, "bad leave target"))
            return
        session.graph = world.graph()
        if attempt("leave", lambda: session.member_leave(nid)):
            world.remove_node(nid)
            events.append((world.time, "leave", nid, None, "member departed"))
    elif ev.kind == "global_rekey":
        attempt("global_rekey", session.periodic_global_rekey)
    elif ev.kind == "local_rekey":
        lvl1 = list(session.tree.children.get(session.root, ()))
        if lvl1:
            attempt("local_rekey", lambda: session.periodic_local_rekey(lvl1[0]))


def _detect_and_respond(config: ScenarioConfig, suite: CipherSuite, session: GroupSession,
                        world: World, samples, events, seed: int) -> dict:
    out: dict = {}
    if len(samples) < 4:
        return out
    data = np.array([v for _, v, _ in samples])
    labels = np.array([1 if a else 0 for _, _, a in samples], dtype=int)
    nodes_of = [n for n, _, _ in samples]
    # stratified even/odd split per class keeps both halves representative
    train_idx, test_idx = [], []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(labels == cls)
        train_idx.extend(cls_idx[0::2])
        test_idx.extend(cls_idx[1::2])
    train_idx, test_idx = sorted(train_idx), sorted(test_idx)
    out["train_samples"] = len(train_idx)
    out["test_samples"] = len(test_idx)

    som_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x50D]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = esom.fit_detector(data[train_idx], labels[train_idx], config.som, som_rng)
    normalized = esom.apply_normalization(model.stats, data[test_idx])
    results = esom.classify_batch(model.grid, model.labeling, normalized)
    verdicts = [c.verdict for c in results]
    truth = [esom.VERDICT_OF[labels[i]] for i in test_idx]
    report = esom.evaluate(verdicts, truth)
    out["detection_rate"] = report.detection_rate
    out["false_alarm_rate"] = report.false_alarm_rate
    out["unclassified_fraction"] = report.unclassified_fraction

    if session is not None and session.keys is not None:
        # per-node coverage over the last classified samples feeds the response path
        per_node: dict[NodeId, list[str]] = {}
        for i, verdict in zip(test_idx, verdicts):
            if verdict != esom.VERDICT_UNCLASSIFIED:
                per_node.setdefault(nodes_of[i], []).append(verdict)
        model_bytes = model.to_bytes()
        maps: dict[NodeId, resp.SecurityMap] = {}
        for nid, vs in per_node.items():
            window = vs[-config.coverage_window:]
            if len(window) >= config.coverage_window and nid in session.nodes:
                attacks = sum(v == esom.VERDICT_ATTACK for v in window)
                maps[nid] = resp.SecurityMap(owner=nid, attack_count=attacks,
                                             window=len(window), epoch=session.epoch,
                                             model_bytes=model_bytes)

        # authenticated map exchange on the root's one-hop group; pairs that
        # drifted out of radio reach lose their messages
        graph = world.graph()
        lks = session.local_keys
        root = session.root

        def radio(step, sender, receiver, payload, digest):
            return (payload, digest) if receiver in graph[sender] else None

        if root in maps and lks:
            nonces = NonceSource(random.Random(seed ^ 0xA1A))
            res = resp.distribute_local_maps(suite, root, lks, maps, nonces,
                                             now=world.time, channel=radio)
            events.extend(res.events)
        # an alarm's receivers rebuild their routes as they quarantine
        tables = {n: resp.RoutingTable(owner=n) for n in session.members}
        for nid, smap in sorted(maps.items()):
            if resp.check_global_trigger(smap, min_window=config.coverage_window):
                nonces = NonceSource(random.Random(seed ^ nid))
                res = resp.global_alarm(suite, smap, session.keys.gk, tables, graph,
                                        nonces, now=world.time,
                                        min_window=config.coverage_window)
                events.extend(res.events)
    # the response columns count the cell's own response events
    kinds = [e[1] for e in events]
    out["alarms"] = kinds.count("alarm")
    out["quarantined_nodes"] = len({e[3] for e in events if e[1] == "quarantine"})
    out["tamper_events"] = kinds.count("map_tamper") + kinds.count("alarm_tamper")
    return out


# -- scenario config files -------------------------------------------------------
# Plain key = value lines, # comments. Lists are comma-separated; membership
# events are time:node pairs. See README for the full key table.

class _List:
    """Parser of a comma-separated list key; a repeated list key appends."""

    def __init__(self, item):
        self.item = item

    def __call__(self, value: str) -> tuple:
        return tuple(self.item(x) for x in value.split(",") if x.strip())


def _finite(value: str) -> float:
    """Parser of every float a scenario holds: nan and the infinities are refused."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not finite")
    return x


def _event(kind: str):
    """Item parser of a schedule key: `time:node` for joins and leaves, else `time`."""
    def parse(item: str) -> ScheduleEvent:
        if kind in ("join", "leave"):
            t, _, n = item.partition(":")
            return ScheduleEvent(_finite(t), kind, int(n))
        return ScheduleEvent(_finite(item), kind)
    return parse


# file key -> (section of ScenarioConfig, None for the config itself; field; parser)
_KEYS = {
    "node_count": (None, "node_count", int),
    "area_width": (None, "area_width", _finite), "area_height": (None, "area_height", _finite),
    "range": (None, "range_m", _finite),
    "duration": (None, "duration", _finite), "root": (None, "root", int),
    "seed": (None, "seed", int),
    "coverage_window": (None, "coverage_window", int),
    "pause_times": (None, "pause_times", _List(_finite)),
    "replay_at": (None, "replay_at", _List(_finite)),
    "droppers": (None, "droppers", _List(int)),
    "eavesdroppers": (None, "eavesdroppers", _List(int)),
    "replayers": (None, "replayers", _List(int)),
    "dropper_counts": (None, "dropper_counts", _List(int)),
    "speed_min": ("mobility", "speed_min", _finite),
    "speed_max": ("mobility", "speed_max", _finite),
    "pause_time": ("mobility", "pause_time", _finite),
    "generators": ("traffic", "generators", int),
    "destinations": ("traffic", "destinations", int),
    "mean_payload": ("traffic", "mean_payload", _finite),
    "attack_start": ("traffic", "attack_start", _finite),
    "attack_end": ("traffic", "attack_end", _finite),
    "sample_interval": ("traffic", "sample_interval", _finite),
    "effect_size": ("traffic", "effect_size", _finite),
    "som_rows": ("som", "rows", int), "som_cols": ("som", "cols", int),
    "som_epochs": ("som", "epochs", int), "hill_quantile": ("som", "hill_quantile", _finite),
    "join_at": (None, "schedule", _List(_event("join"))),
    "leave_at": (None, "schedule", _List(_event("leave"))),
    "global_rekey_at": (None, "schedule", _List(_event("global_rekey"))),
    "local_rekey_at": (None, "schedule", _List(_event("local_rekey"))),
}


def parse_scenario(path) -> ScenarioConfig:
    """Parse a scenario file; errors carry the offending line number, the
    first bad line winning. Keys absent from the file keep the
    ScenarioConfig defaults."""
    cfg = ScenarioConfig()
    seen: set[str] = set()
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            where = f"{path}:{lineno}"
            if "=" not in text:
                raise ScenarioError(f"{where}: expected 'key = value'")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in _KEYS:
                raise ScenarioError(f"{where}: unknown key {key!r}")
            section, name, parse = _KEYS[key]
            listed = isinstance(parse, _List)
            if key in seen and not listed:
                raise ScenarioError(f"{where}: duplicate key {key!r}")
            seen.add(key)
            try:
                parsed = parse(value)
            except ValueError:
                raise ScenarioError(f"{where}: bad value for {key}: {value!r}") from None
            target = getattr(cfg, section) if section else cfg
            setattr(target, name, getattr(target, name) + parsed if listed else parsed)
    try:
        cfg.validate()
    except ScenarioError as e:
        raise ScenarioError(f"{path}: {e}") from None
    return cfg
