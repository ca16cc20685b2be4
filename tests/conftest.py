import math
import random
from collections import deque

import numpy as np
import pytest

from manetsec import sim
from manetsec.crypto import CipherSuite
from manetsec.esom import _LR_END, _LR_START, _RADIUS_END, SomGrid
from manetsec.protocol import GroupSession


def make_graph(edges):
    graph = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set()).add(a)
    return graph


def bfs_levels(root, nodes, graph):
    """Plain BFS hop distances over `nodes`; the layering and hop-map oracle."""
    dist = {root: 0}
    frontier = deque([root])
    while frontier:
        n = frontier.popleft()
        for nb in graph.get(n, set()):
            if nb in nodes and nb not in dist:
                dist[nb] = dist[n] + 1
                frontier.append(nb)
    return dist


def hop_map(graph, root):
    """BFS hop count from `root` to every node it reaches, root included;
    the dict hop-count oracle of `sim.Topology.hop_rows`."""
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


def walk_route_reference(graph, src, dst):
    """The greedy lowest-ID walk over a dict graph and `hop_map`."""
    if src == dst:
        return [src]
    if dst in graph.get(src, ()):
        return [src, dst]
    to_dst = hop_map(graph, dst)
    if src not in to_dst:
        return None
    path = [src]
    for level in range(to_dst[src] - 1, 0, -1):
        path.append(min(nb for nb in graph[path[-1]] if to_dst.get(nb) == level))
    path.append(dst)
    return path


def reference_connectivity(world):
    """The original builder: an (n, n, 2) broadcast and a loop over every
    in-range pair. Its neighbour sets are the order reference."""
    pos = world.positions
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    within = d2 <= world.config.range_m * world.config.range_m
    graph = {nid: set() for nid in world.ids}
    ii, jj = np.nonzero(within)
    for a, b in zip(ii, jj):
        if a != b:
            graph[world.ids[a]].add(world.ids[b])
    return graph


def topology_of(graph, ids=None):
    """A `sim.Topology` of a dict graph, its rows in the order of `ids`
    (default: the graph's key order, which need not be ascending)."""
    ids = list(graph) if ids is None else list(ids)
    index = {nid: i for i, nid in enumerate(ids)}
    within = np.zeros((len(ids), len(ids)), dtype=bool)
    for a in ids:
        for b in graph.get(a, ()):
            within[index[a], index[b]] = True
    return sim.Topology(ids, within)


def generate_features_reference(world, pairs, rng):
    """The per-source feature tick: 7 scalar draws per source, a dict
    graph, a dict BFS and a walk per pair; the feature-stream oracle."""
    traffic = world.config
    t = world.time
    in_window = traffic.attack_start <= t < traffic.attack_end
    payload_scale = traffic.mean_payload / 512.0
    graph = reference_connectivity(world)
    out = {}
    for src, dst in pairs:
        route = walk_route_reference(graph, src, dst)
        hops = len(route) - 1 if route else 0
        intermediates = route[1:-1] if route else []
        attacked = bool(in_window and any(world.adversaries.get(h) == sim.DROPPER
                                          for h in intermediates))
        draw = {name: rng.normal(mu, sd) for name, (mu, sd) in sim._BASELINES.items()}
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
            vec[2] = max(vec[2] - eff * sim._BASELINES["rx_rate"][1], 0.0)
            vec[4] = min(max(vec[4] + eff * sim._BASELINES["data_retx_rate"][1], 0.0), 1.0)
            vec[6] = max(vec[6] - eff * sim._BASELINES["forwarding_nodes"][1], 0.0)
        out[src] = (vec, attacked)
    return out


def scan_reference(transcript, secrets):
    """Test every byte offset in a Python loop; the secret-scan oracle."""
    if not secrets:
        return 0
    (width,) = {len(s) for s in secrets}
    t = bytes(transcript)
    return sum(t[i : i + width] in secrets for i in range(len(t) - width + 1))


def train_som_reference(data, config, rng, on_epoch=None):
    """Neuron-major `(N, dim)` weights and one fresh array per operation,
    the BMU the least squared distance summed feature by feature in order;
    the online-trainer oracle."""
    config.validate()
    data = np.asarray(data, dtype=float)
    n, dim = data.shape
    n_neurons = config.rows * config.cols
    lo, hi = data.min(axis=0), data.max(axis=0)
    weights = rng.uniform(size=(n_neurons, dim)) * (hi - lo) + lo
    rr, cc = np.divmod(np.arange(n_neurons), config.cols)
    r0 = max(config.rows, config.cols) / 2
    total = config.epochs * n
    step = 0
    denom = max(total - 1, 1)
    for epoch in range(config.epochs):
        for idx in rng.permutation(n):
            x = data[idx]
            t = step / denom
            lr = _LR_START + (_LR_END - _LR_START) * t
            rad = r0 + (_RADIUS_END - r0) * t
            diff = weights - x
            bmu = int(np.argmin(((weights - x) ** 2).sum(axis=1)))
            d2 = (rr - rr[bmu]) ** 2 + (cc - cc[bmu]) ** 2
            h = np.exp(d2 / (-2.0 * rad * rad))
            weights -= (lr * h)[:, None] * diff
            step += 1
        if on_epoch is not None:
            on_epoch(epoch, weights.copy())
    return SomGrid(rows=config.rows, cols=config.cols, weights=weights)


def random_geometric(n, radius, rng, w=1.0, h=1.0):
    pts = [(rng.uniform(0, w), rng.uniform(0, h)) for _ in range(n)]
    graph = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if math.dist(pts[i], pts[j]) <= radius:
                graph[i].add(j)
                graph[j].add(i)
    return graph


# 18 nodes: root 1, checker 5 (one-hop neighbor of the root, outside the
# tree), 17 tree members in four levels below the root.
FIG4_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 5),
    (2, 6), (2, 7), (3, 8), (4, 9),
    (6, 10), (6, 11), (7, 12), (8, 13),
    (10, 14), (10, 15), (11, 16), (12, 17), (13, 18),
]


@pytest.fixture
def fig4_graph():
    return make_graph(FIG4_EDGES)


@pytest.fixture
def suite():
    return CipherSuite()


@pytest.fixture
def fig4_session(fig4_graph, suite):
    return GroupSession(fig4_graph, root=1, members=set(range(1, 19)),
                        suite=suite, seed=7, checker=5)


@pytest.fixture
def rng():
    return random.Random(1234)
