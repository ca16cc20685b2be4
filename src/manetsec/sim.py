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
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .crypto import CipherSuite, NonceSource
from .keytree import Graph, NodeId, TreeError, bfs_parents
from .protocol import GroupSession, ProtocolAbort, Transport, sub_seed
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
    speed_min: float = 0.0
    speed_max: float = 10.0
    pause_time: float = 0.0
    generators: int = 20
    destinations: int = 10
    mean_payload: float = 512.0
    attack_start: float = 50.0
    attack_end: float = 200.0
    sample_interval: float = 1.0
    effect_size: float = 4.0
    droppers: tuple[NodeId, ...] = ()
    eavesdroppers: tuple[NodeId, ...] = ()
    replayers: tuple[NodeId, ...] = ()
    replay_at: tuple[float, ...] = ()
    som: esom.SomConfig = field(default_factory=lambda: esom.SomConfig(rows=12, cols=16, epochs=10))
    coverage_window: int = 30
    schedule: tuple[ScheduleEvent, ...] = ()
    pause_times: tuple[float, ...] = ()      # sweep; empty = single pause_time
    dropper_counts: tuple[int, ...] = ()     # sweep; empty = the explicit droppers list
    seed: int | None = None

    def validate(self):
        if self.node_count < 2:
            raise ScenarioError("need at least two nodes")
        if self.area_width <= 0 or self.area_height <= 0 or self.range_m <= 0:
            raise ScenarioError("area and range must be positive")
        if not 0 <= self.root < self.node_count:
            raise ScenarioError("root must be one of the initial node ids")
        if not 0 <= self.speed_min <= self.speed_max:
            raise ScenarioError("need 0 <= speed_min <= speed_max")
        if self.pause_time < 0:
            raise ScenarioError("pause_time must be non-negative")
        if self.generators < 1 or self.destinations < 1:
            raise ScenarioError("traffic needs at least one generator and destination")
        if not 0 <= self.attack_start <= self.attack_end <= self.duration:
            raise ScenarioError("attack window must fit inside the run duration")
        if self.sample_interval <= 0:
            raise ScenarioError("sample_interval must be positive")
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


class Topology:
    """One world version's radio graph, built once and then read-only.

    `within` is the in-range boolean matrix over `ids`: row and column i
    stand for node `ids[i]` (`index` maps an id back), with no self loops.
    `hop_rows` derives hop counts from it by node index, every row on the
    first request in the version. `graph`, the same adjacency as a dict of
    neighbour sets, stays None until `World.graph()` fills it, so only the
    readers that need a dict (the protocol session, `RadioTransport` and the
    response layer) pay for one.
    """

    def __init__(self, ids: list[NodeId], within: np.ndarray):
        self.ids = list(ids)
        self.within = within
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        self.id_array = np.asarray(self.ids, dtype=np.int64)
        self._adjacency = within.astype(np.float32)
        self._rows: dict[NodeId, np.ndarray] = {}
        self.graph: Graph | None = None

    def hop_rows(self, roots: Sequence[NodeId]) -> list[np.ndarray]:
        """Per root, the hop count from it to every node by index, -1 where
        it is unreachable; read-only.

        The rows not yet built in this version come from one batched BFS:
        per level, the (k, n) frontier times the (n, n) matrix in float32,
        each sum counting paths, so any positive entry is a node the level
        reaches (float32 counts up to n exactly). The product takes only
        the columns where some frontier is nonzero and the matching matrix
        rows, which leaves every sum as it is, so a level costs about
        k x frontier x n instead of k x n x n: at 1000 nodes a tick's BFS
        is several times cheaper than the full product.
        """
        todo = [r for r in dict.fromkeys(roots) if r not in self._rows]
        if todo:
            hops = np.full((len(todo), len(self.ids)), -1, dtype=np.int32)
            frontier = np.zeros(hops.shape, dtype=bool)
            start = (np.arange(len(todo)), [self.index[r] for r in todo])
            hops[start] = 0
            frontier[start] = True
            level = 0
            while True:
                active = frontier.any(axis=0).nonzero()[0]
                if not active.size:
                    break
                level += 1
                paths = frontier[:, active].astype(np.float32) @ self._adjacency[active]
                frontier = (paths > 0) & (hops < 0)
                hops[frontier] = level
            hops.flags.writeable = False
            self._rows.update(zip(todo, hops))
        return [self._rows[r] for r in roots]

    def component(self, root: NodeId) -> set[NodeId]:
        """Every node `root` reaches, itself included."""
        (row,) = self.hop_rows((root,))
        return set(self.id_array[row >= 0].tolist())


@dataclass
class World:
    """Mutable simulation state; advance with mobility_step.

    `mobility_step`, `add_node` and `remove_node` bump `version`.
    `topology()` builds the in-range matrix once per version and keeps it,
    with the hop-count rows read from it, in a `Topology`; `graph()` builds
    that version's dict graph from the matrix on the first request. A direct
    write to `positions` bumps nothing, so code that makes one bumps
    `version` itself.
    """

    ids: list[NodeId]
    positions: np.ndarray          # (n, 2) meters
    waypoints: np.ndarray          # (n, 2)
    speeds: np.ndarray             # (n,) m/s
    pause_until: np.ndarray        # (n,) seconds
    config: ScenarioConfig         # the cell's scenario: area, range, mobility
    rng: np.random.Generator
    adversaries: dict[NodeId, str] = field(default_factory=dict)  # id -> adversary kind
    time: float = 0.0
    version: int = field(default=0, init=False, repr=False, compare=False)
    _topology: tuple[int, Topology] | None = field(
        default=None, init=False, repr=False, compare=False)

    def index(self, node: NodeId) -> int:
        return self.ids.index(node)

    def topology(self) -> Topology:
        """The current version's `Topology`, shared by every caller."""
        if self._topology is None or self._topology[0] != self.version:
            self._topology = (self.version, Topology(self.ids, _in_range(self)))
        return self._topology[1]

    def graph(self) -> Graph:
        """`connectivity(self)`, built once per version on the first request
        and shared by every caller; callers must not mutate it."""
        topology = self.topology()
        if topology.graph is None:
            topology.graph = connectivity(self)
        return topology.graph

    def add_node(self, node: NodeId, position: np.ndarray) -> None:
        self.version += 1
        self.ids.append(node)
        self.positions = np.vstack([self.positions, position[None, :]])
        self.waypoints = np.vstack([self.waypoints, position[None, :]])
        self.speeds = np.append(self.speeds, 0.0)
        self.pause_until = np.append(self.pause_until, self.time + self.config.pause_time)

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
    # the one stream not derived by sub_seed: deriving it moves which nodes
    # reach the root (scenario_basic's group from 34 to 2 of 50), so it moves
    # with the sweeps' shared per-replicate streams (ROADMAP item 11)
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
        pause_until=np.full(n, config.pause_time, dtype=float),
        config=config,
        rng=rng,
        adversaries=config.adversary_roles(),
    )


def mobility_step(world: World, dt: float) -> World:
    """Random waypoint: head to the target, pause on arrival, pick anew.

    The loop runs on Python floats, one list per coordinate, written back
    by column; each operation is the IEEE one the per-row numpy form did,
    so every position is the same to the bit.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    cfg = world.config
    w, h = cfg.area_width, cfg.area_height
    now, rng = world.time, world.rng
    xs, ys = world.positions.T.tolist()
    wxs, wys = world.waypoints.T.tolist()
    speeds, pause_until = world.speeds.tolist(), world.pause_until.tolist()
    for i, until in enumerate(pause_until):
        if now < until:
            continue
        px, py, wx, wy = xs[i], ys[i], wxs[i], wys[i]
        gx, gy = wx - px, wy - py
        dist = math.hypot(gx, gy)
        step = speeds[i] * dt
        if dist <= step or dist == 0.0:
            xs[i], ys[i] = wx, wy
            pause_until[i] = now + cfg.pause_time
            wxs[i], wys[i] = rng.uniform(0.0, w), rng.uniform(0.0, h)
            speeds[i] = rng.uniform(cfg.speed_min, cfg.speed_max)
        else:
            f = step / dist
            xs[i], ys[i] = px + gx * f, py + gy * f
    world.positions[:, 0], world.positions[:, 1] = xs, ys
    world.waypoints[:, 0], world.waypoints[:, 1] = wxs, wys
    world.speeds[:] = speeds
    world.pause_until[:] = pause_until
    world.time += dt
    world.version += 1
    return world


def _in_range(world: World) -> np.ndarray:
    """The (n, n) in-range matrix by index; the 250 m boundary itself
    connects, and no node is its own neighbour.

    The squared distances are summed in place, two (n, n) temporaries in
    all, in the order `dx*dx + dy*dy`.
    """
    x, y = world.positions.T
    d2 = np.subtract.outer(x, x)
    d2 *= d2
    dy = np.subtract.outer(y, y)
    dy *= dy
    d2 += dy
    r = world.config.range_m
    within = d2 <= r * r
    np.fill_diagonal(within, False)
    return within


def connectivity(world: World) -> Graph:
    """Undirected in-range adjacency as a dict of neighbour sets, read off
    the in-range matrix of the world's current version.

    Uncached; `World.graph()` keeps one per version. Each neighbour set is
    filled in ascending index order.
    """
    topology = world.topology()
    within = topology.within
    neighbours = topology.id_array[np.nonzero(within)[1]].tolist()
    graph: Graph = {}
    start = 0
    for nid, end in zip(topology.ids, np.cumsum(within.sum(axis=1)).tolist()):
        graph[nid] = set(neighbours[start:end])
        start = end
    return graph


class RadioTransport(Transport):
    """Range-checked delivery over the live world.

    Each frame reads the world's one `Topology` for its current version
    (`World.topology()`), and a unicast its dict graph (`World.graph()`), so
    a pump between two world changes builds each at most once. Each radio
    transmission reaches exactly the nodes within range of the transmitter.
    Unicasts to a distant receiver are relayed along the lowest-ID shortest
    in-range path (the ad hoc routing layer such networks run), broadcasts
    flood hop-by-hop through the connected component: the nodes the
    sender's hop-count row reaches. Adversaries listen per hop:
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
        topology = world.topology()
        sender, receiver = msg.sender, msg.receiver
        if receiver == BROADCAST:
            component = topology.component(sender) if sender in topology.index else set()
            return (sorted(m for m in members if m != sender and m in component),
                    component, True)
        route = (shortest_route(topology, sender, receiver)
                 if sender in topology.index and receiver in topology.index else None)
        graph = world.graph()
        if route is None or receiver not in members:
            return [], set(graph.get(sender, ())) | {sender}, False
        hearers: set[NodeId] = set()
        for hop in route[:-1]:  # every forwarding hop transmits once
            hearers.add(hop)
            hearers.update(graph.get(hop, ()))
        return [receiver], hearers, True


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
_MEANS, _SDS = (np.array(col) for col in zip(*_BASELINES.values()))


def shortest_route(topology: Topology, src: NodeId, dst: NodeId) -> list[NodeId] | None:
    """Lowest-ID BFS route; None when the destination is unreachable.

    That route is the lexicographically least shortest path, so it is the
    greedy walk from `src` that always steps to the lowest-ID neighbour one
    hop closer to `dst`. The walk reads the hop counts to `dst` by node
    index (`Topology.hop_rows`) and compares the closer neighbours' ids, not
    their indices: after a leave and a rejoin the ids are out of ascending
    order. Routes of zero and one hop need no hop counts.
    """
    if src == dst:
        return [src]
    index = topology.index
    if src not in index or dst not in index:
        return None
    within = topology.within
    at = index[src]
    if within[at, index[dst]]:
        return [src, dst]
    (to_dst,) = topology.hop_rows((dst,))
    if to_dst[at] < 0:
        return None
    ids = topology.id_array
    path = [src]
    for level in range(int(to_dst[at]) - 1, 0, -1):
        neighbours = within[at].nonzero()[0]
        closer = neighbours[to_dst[neighbours] == level]
        at = closer[ids[closer].argmin()]
        path.append(topology.ids[at])
    path.append(dst)
    return path


def traffic_pairs(members: list[NodeId], config: ScenarioConfig) -> list[tuple[NodeId, NodeId]]:
    """Deterministic source/destination assignment from the sorted roster."""
    members = sorted(members)
    sources = members[: min(config.generators, len(members))]
    dests = members[-min(config.destinations, len(members)):]
    return [(s, dests[i % len(dests)]) for i, s in enumerate(sources)]


def generate_features(world: World, pairs: list[tuple[NodeId, NodeId]],
                      rng: np.random.Generator) -> dict[NodeId, tuple[np.ndarray, bool]]:
    """One interval of per-source samples plus ground truth, on the world's
    current topology and traffic knobs; every id in `pairs` is a world node.

    A source is under attack when the clock is inside the attack window and
    some intermediate hop of its current route is a dropper; then rx_rate and
    forwarding count shift down and the data retransmission rate shifts up by
    effect_size standard deviations. Outside the window a source's hop count
    is all it needs, so only the window walks routes. The hop counts of
    every destination come in one batch, and the tick's normals in one call,
    source by source in `_BASELINES` order as the 7 scalar draws per source
    came.
    """
    cfg = world.config
    topology = world.topology()
    at = [topology.index[src] for src, _ in pairs]
    rows = topology.hop_rows([dst for _, dst in pairs])
    attacked = [False] * len(pairs)
    if cfg.attack_start <= world.time < cfg.attack_end:
        for k, (src, dst) in enumerate(pairs):
            route = shortest_route(topology, src, dst) or []
            attacked[k] = any(world.adversaries.get(h) == DROPPER for h in route[1:-1])
    vecs = rng.normal(_MEANS, _SDS, size=(len(pairs), len(_BASELINES)))
    vecs[:, 0] *= cfg.mean_payload / 512.0
    vecs[:, 5] += topology.within[at].sum(axis=1)
    vecs[:, 6] += [max(int(row[i]), 0) for row, i in zip(rows, at)]
    vecs[vecs < 0.0] = 0.0            # max(x, 0.0), nan and -0.0 kept
    rates = vecs[:, 3:5]
    rates[rates > 1.0] = 1.0          # min(x, 1.0)
    eff = cfg.effect_size
    for vec, hit in zip(vecs, attacked):
        if hit:
            vec[2] = max(vec[2] - eff * _BASELINES["rx_rate"][1], 0.0)
            vec[4] = min(max(vec[4] + eff * _BASELINES["data_retx_rate"][1], 0.0), 1.0)
            vec[6] = max(vec[6] - eff * _BASELINES["forwarding_nodes"][1], 0.0)
    return {src: (vec, hit) for (src, _), vec, hit in zip(pairs, vecs, attacked)}


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
    pause_values = config.pause_times or (config.pause_time,)
    dropper_values = config.dropper_counts or (None,)
    rows, events = [], []
    for pause in pause_values:
        for dcount in dropper_values:
            droppers = config.droppers if dcount is None else config._dropper_pool()[:dcount]
            cell_cfg = replace(config, pause_time=pause, droppers=tuple(droppers))
            # float() so that pause 20 and 20.0 seed the same cell
            row, ev = _run_cell(cell_cfg, sub_seed(seed, f"{float(pause)}/{dcount}"))
            row["pause_time"] = pause
            row["dropper_count"] = len(cell_cfg.droppers)
            rows.append(row)
            events.extend(ev)
    return MetricsReport(columns=_COLUMNS, rows=rows, events=events)


def _run_cell(config: ScenarioConfig, seed: int):
    world = init_world(config, seed)
    suite = CipherSuite()
    feat_rng = np.random.default_rng(sub_seed(seed, "features"))
    events: list[tuple[float, str, object, object, str]] = []
    row: dict = {c: None for c in _COLUMNS}

    graph = world.graph()
    members = world.topology().component(config.root)
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
        pairs = traffic_pairs(active, config)
        for src, (vec, attacked) in generate_features(world, pairs, feat_rng).items():
            samples.append((src, vec, attacked))
        mobility_step(world, config.sample_interval)
        t = world.time

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
            cfg = world.config
            offset = world.rng.uniform(-cfg.range_m / 4, cfg.range_m / 4, size=2)
            world.add_node(nid, np.clip(base + offset, (0, 0), (cfg.area_width, cfg.area_height)))
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
    # each class split by a seeded permutation, the first half rounded up training
    split_rng = np.random.default_rng(sub_seed(seed, "split"))
    train_idx, test_idx = [], []
    for cls in (0, 1):
        train, test = np.array_split(split_rng.permutation(np.flatnonzero(labels == cls)), 2)
        train_idx.extend(train)
        test_idx.extend(test)
    train_idx, test_idx = sorted(train_idx), sorted(test_idx)
    out["train_samples"] = len(train_idx)
    out["test_samples"] = len(test_idx)

    som_rng = np.random.default_rng(sub_seed(seed, "som"))
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
            nonces = NonceSource(random.Random(sub_seed(seed, "response/maps")))
            res = resp.distribute_local_maps(suite, root, lks, maps, nonces,
                                             now=world.time, channel=radio)
            events.extend(res.events)
        # an alarm's receivers rebuild their routes as they quarantine
        tables = {n: resp.RoutingTable(owner=n) for n in session.members}
        for nid, smap in sorted(maps.items()):
            if resp.check_global_trigger(smap, min_window=config.coverage_window):
                nonces = NonceSource(random.Random(sub_seed(seed, f"response/alarm:{nid}")))
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
    "speed_min": (None, "speed_min", _finite),
    "speed_max": (None, "speed_max", _finite),
    "pause_time": (None, "pause_time", _finite),
    "generators": (None, "generators", int),
    "destinations": (None, "destinations", int),
    "mean_payload": (None, "mean_payload", _finite),
    "attack_start": (None, "attack_start", _finite),
    "attack_end": (None, "attack_end", _finite),
    "sample_interval": (None, "sample_interval", _finite),
    "effect_size": (None, "effect_size", _finite),
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
