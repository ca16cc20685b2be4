import math
import random
from collections import deque

import pytest

from manetsec.crypto import CipherSuite
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


def scan_reference(transcript, secrets):
    """Test every byte offset in a Python loop; the secret-scan oracle."""
    if not secrets:
        return 0
    (width,) = {len(s) for s in secrets}
    t = bytes(transcript)
    return sum(t[i : i + width] in secrets for i in range(len(t) - width + 1))


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
