import hashlib
import math
import random
import re
from collections import deque
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from manetsec import cli, esom, sim
from manetsec.adversary import broadcasts_since, capture_knowledge, forward_secrecy_candidates
from manetsec.crypto import CipherSuite
from manetsec.esom import SomConfig
from manetsec.keytree import TreeError, bfs_parents
from manetsec.protocol import GroupSession, ProtocolAbort
from manetsec.response import RoutingTable
from manetsec.wire import BROADCAST, MessageKind, ProtocolMessage

from conftest import (bfs_levels, generate_features_reference, hop_map, make_graph,
                      random_geometric, reference_connectivity, topology_of)
from test_protocol import tree_dump

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def small_config(**kw):
    defaults = dict(
        node_count=16, area_width=600, area_height=400, range_m=250,
        duration=60, root=0,
        generators=8, destinations=4, attack_start=20, attack_end=60,
        som=SomConfig(rows=8, cols=10, epochs=6),
        coverage_window=10,
    )
    defaults.update(kw)
    return sim.ScenarioConfig(**defaults)


class TestInitWorld:
    def test_same_seed_same_placement(self):
        cfg = small_config()
        w1 = sim.init_world(cfg, 9)
        w2 = sim.init_world(cfg, 9)
        assert np.array_equal(w1.positions, w2.positions)

    def test_positions_inside_area(self):
        cfg = sim.ScenarioConfig(node_count=50)
        w = sim.init_world(cfg, 3)
        assert np.all(w.positions[:, 0] >= 0) and np.all(w.positions[:, 0] <= 1800)
        assert np.all(w.positions[:, 1] >= 0) and np.all(w.positions[:, 1] <= 1000)

    def test_uniform_placement_chi_square(self):
        # 10^4 placements; per-axis decile histogram chi-square under the
        # 99.9% critical value for 9 degrees of freedom
        cfg = sim.ScenarioConfig(node_count=50)
        xs, ys = [], []
        for k in range(200):
            w = sim.init_world(cfg, 1000 + k)
            xs.extend(w.positions[:, 0])
            ys.extend(w.positions[:, 1])
        for values, hi in ((xs, 1800.0), (ys, 1000.0)):
            counts, _ = np.histogram(values, bins=10, range=(0.0, hi))
            expected = len(values) / 10
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < 27.88

    def test_validation_errors(self):
        with pytest.raises(sim.ScenarioError):
            sim.ScenarioConfig(node_count=1).validate()
        with pytest.raises(sim.ScenarioError):
            sim.ScenarioConfig(droppers=(99,)).validate()
        with pytest.raises(sim.ScenarioError):
            small_config(attack_start=50, attack_end=40).validate()


class TestMobility:
    def test_pause_equal_to_duration_means_stationary(self):
        cfg = small_config(pause_time=200.0)
        w = sim.init_world(cfg, 5)
        start = w.positions.copy()
        for _ in range(200):
            sim.mobility_step(w, 1.0)
        assert np.array_equal(w.positions, start)

    def test_zero_speed_max_keeps_positions(self):
        cfg = small_config(speed_max=0.0, pause_time=0.0)
        w = sim.init_world(cfg, 5)
        start = w.positions.copy()
        for _ in range(50):
            sim.mobility_step(w, 1.0)
        assert np.allclose(w.positions, start)

    def test_displacement_bounded_by_speed(self):
        cfg = small_config(speed_min=0, speed_max=10, pause_time=0.0)
        w = sim.init_world(cfg, 6)
        for _ in range(100):
            before = w.positions.copy()
            sim.mobility_step(w, 1.0)
            moved = np.linalg.norm(w.positions - before, axis=1)
            assert np.all(moved <= 10.0 + 1e-9)

    def test_waypoints_stay_inside_area(self):
        cfg = small_config(speed_min=5, speed_max=10, pause_time=0.0)
        w = sim.init_world(cfg, 7)
        for _ in range(300):
            sim.mobility_step(w, 1.0)
            assert np.all(w.positions[:, 0] >= -1e-9)
            assert np.all(w.positions[:, 0] <= 600 + 1e-9)
            assert np.all(w.positions[:, 1] <= 400 + 1e-9)


def reference_mobility_step(world, dt):
    """The per-row numpy loop that `mobility_step` replaced, kept as its
    bit-for-bit oracle."""
    m = world.config
    w, h = m.area_width, m.area_height
    for i in range(len(world.ids)):
        if world.time < world.pause_until[i]:
            continue
        to_go = world.waypoints[i] - world.positions[i]
        dist = math.hypot(*to_go)
        step = world.speeds[i] * dt
        if dist <= step or dist == 0.0:
            world.positions[i] = world.waypoints[i]
            world.pause_until[i] = world.time + m.pause_time
            world.waypoints[i] = (world.rng.uniform(0.0, w), world.rng.uniform(0.0, h))
            world.speeds[i] = world.rng.uniform(m.speed_min, m.speed_max)
        else:
            world.positions[i] += to_go * (step / dist)
    world.time += dt
    world.version += 1
    return world


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMobilityOracle:
    @staticmethod
    def rig(w):
        # node 0 lands exactly on its waypoint (a 3-4-5 leg at 5 m/s for
        # 1 s), node 1 has a zero-length leg and node 2 stays paused a while
        w.positions[0] = (100.0, 100.0)
        w.waypoints[0] = (103.0, 104.0)
        w.speeds[0] = 5.0
        w.waypoints[1] = w.positions[1]
        w.speeds[1] = 0.0
        w.pause_until[:3] = (0.0, 0.0, 7.5)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 12),
           pause=st.sampled_from([0.0, 2.0, 5.5]), speed=st.sampled_from([(0, 10), (5, 5)]),
           ops=st.lists(st.tuples(st.sampled_from(["move", "move", "add", "remove"]),
                                  st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                        min_size=10, max_size=40))
    def test_bit_identical_to_the_numpy_loop(self, seed, n, pause, speed, ops):
        cfg = small_config(node_count=n, speed_min=speed[0], speed_max=speed[1],
                           pause_time=pause)
        worlds = [sim.init_world(cfg, seed), sim.init_world(cfg, seed)]
        next_id = n
        for w in worlds:
            self.rig(w)
        for kind, a, b in [("move", 0.0, 0.0)] + ops:
            for w, step in zip(worlds, (sim.mobility_step, reference_mobility_step)):
                if kind == "move":
                    step(w, 1.0 if a < 0.3 else 0.25 + 4 * a)
                elif kind == "add":
                    w.add_node(next_id, np.array([a * cfg.area_width, b * cfg.area_height]))
                elif len(w.ids) > 1:
                    w.remove_node(w.ids[int(a * len(w.ids)) % len(w.ids)])
            next_id += kind == "add"
            got, ref = worlds
            for name in ("positions", "waypoints", "speeds", "pause_until"):
                assert same_bits(getattr(got, name), getattr(ref, name)), name
            assert got.rng.bit_generator.state == ref.rng.bit_generator.state
            assert (got.time, got.version, got.ids) == (ref.time, ref.version, ref.ids)

    def test_rigged_legs_take_their_branches(self):
        w = sim.init_world(small_config(node_count=3, speed_min=1, speed_max=2,
                                        pause_time=0.0), 4)
        self.rig(w)
        paused = w.positions[2].copy()
        sim.mobility_step(w, 1.0)
        assert list(w.positions[0]) == [103.0, 104.0]   # arrived, new leg drawn
        assert list(w.waypoints[0]) != [103.0, 104.0] and 1 <= w.speeds[0] <= 2
        assert 1 <= w.speeds[1] <= 2                    # zero leg: arrived at once
        assert np.array_equal(w.positions[2], paused)


class TestConnectivity:
    def test_boundary_distance_is_connected(self):
        cfg = small_config(node_count=2, range_m=250.0)
        w = sim.init_world(cfg, 1)
        w.positions[0] = (0.0, 0.0)
        w.positions[1] = (250.0, 0.0)
        g = sim.connectivity(w)
        assert 1 in g[0] and 0 in g[1]
        w.positions[1] = (250.0001, 0.0)
        w.version += 1  # a direct write bumps nothing
        g = sim.connectivity(w)
        assert g[0] == set()

    def test_matches_bruteforce_oracle(self):
        cfg = small_config(node_count=30)
        w = sim.init_world(cfg, 8)
        g = sim.connectivity(w)
        for i, a in enumerate(w.ids):
            for j, b in enumerate(w.ids):
                if a == b:
                    continue
                d = math.dist(w.positions[i], w.positions[j])
                assert (b in g[a]) == (d <= w.config.range_m)
                assert (a in g[b]) == (b in g[a])


def scaled_world(n, seed):
    # the density of scenario_basic (50 nodes on 1800 x 1000 m)
    side = math.sqrt(n / 50)
    cfg = sim.ScenarioConfig(node_count=n, area_width=1800 * side, area_height=1000 * side)
    return sim.init_world(cfg, seed)


class TestConnectivityBuild:
    @pytest.mark.parametrize("n", [30, 200, 1000])
    def test_equals_the_pair_loop_in_content_and_order(self, n):
        w = scaled_world(n, n)
        sim.mobility_step(w, 5.0)
        w.remove_node(w.ids[3])  # ids no longer equal row indices
        w.add_node(5000, w.positions[7] + 10.0)
        got, ref = sim.connectivity(w), reference_connectivity(w)
        assert list(got) == list(ref)
        for nid in ref:
            assert got[nid] == ref[nid]
            assert list(got[nid]) == list(ref[nid])

    def test_matches_kdtree_pairs_on_the_boundary(self):
        spatial = pytest.importorskip("scipy.spatial")
        w = scaled_world(1000, 3)
        # exactly 250 m apart: along x, along y and on a 3-4-5 diagonal
        # (integer coordinates, so every squared distance is exact); then a
        # pair a hair beyond range
        for i, xy in enumerate([(1000, 1000), (1250, 1000), (3000, 2000), (3000, 2250),
                                (5000, 3000), (5150, 3200), (7000, 100), (7000, 350.0001)]):
            w.positions[i] = xy
        g = sim.connectivity(w)
        edges = {(a, b) for a in g for b in g[a] if a < b}
        assert edges == spatial.cKDTree(w.positions).query_pairs(w.config.range_m)
        assert {(0, 1), (2, 3), (4, 5)} <= edges and (6, 7) not in edges
        assert all(a in g[b] for a, b in edges)


class TestWorldGraph:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           ops=st.lists(st.tuples(st.sampled_from(["move", "add", "remove"]),
                                  st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                        max_size=12))
    def test_graph_follows_every_world_change(self, seed, n, ops):
        w = sim.init_world(small_config(node_count=n), seed)
        next_id = n
        for kind, a, b in [("move", 1.0, 0.0)] + ops:
            if kind == "move":
                sim.mobility_step(w, 0.5 + 30 * a)
            elif kind == "add":
                w.add_node(next_id, np.array([a * w.config.area_width, b * w.config.area_height]))
                next_id += 1
            elif len(w.ids) > 1:
                w.remove_node(w.ids[int(a * len(w.ids)) % len(w.ids)])
            g = w.graph()
            assert g == reference_connectivity(w)
            assert w.graph() is g  # no change, no rebuild

    def test_each_world_change_bumps_the_version(self):
        w = sim.init_world(small_config(node_count=4), 2)
        versions = [w.version]
        sim.mobility_step(w, 1.0)
        versions.append(w.version)
        w.add_node(9, np.array([10.0, 10.0]))
        versions.append(w.version)
        w.remove_node(1)
        versions.append(w.version)
        assert versions == sorted(set(versions))
        assert "version" not in repr(w)

    def test_topology_built_once_per_world_change(self, monkeypatch):
        # at most one in-range matrix per world version, never one per
        # radio frame; the dict graph only on the versions a reader asks for
        # it (epochs, frames and the response), not on every tick
        cfg = sim.parse_scenario(DEMOS / "scenario_basic.cfg")
        matrices, graphs = [], []
        in_range, build = sim._in_range, sim.connectivity
        monkeypatch.setattr(sim, "_in_range", lambda w: matrices.append(w.version) or in_range(w))
        monkeypatch.setattr(sim, "connectivity", lambda w: graphs.append(w.version) or build(w))
        sim.run_scenario(cfg)
        ticks = math.ceil(cfg.duration / cfg.sample_interval)
        # one sweep cell, so one world: a version names one build
        assert len(cfg.pause_times or (None,)) * len(cfg.dropper_counts or (None,)) == 1
        assert len(set(matrices)) == len(matrices)
        assert 0 < len(matrices) <= ticks + len(cfg.schedule) + 2
        assert len(set(graphs)) == len(graphs) and set(graphs) <= set(matrices)
        assert 0 < len(graphs) < ticks

    def test_earlier_topologies_keep_their_matrix(self):
        # a Topology keeps its version's in-range matrix through later
        # ticks, joins and leaves: no later build may write into it, even
        # one that reuses work arrays
        w = sim.init_world(small_config(node_count=12, pause_time=0.0), 5)
        r2 = w.config.range_m ** 2
        kept = []
        for op in ["move", "move", "add", "move", "remove", "move", "add", "move"]:
            topology = w.topology()
            xy = w.positions.tolist()
            want = np.array([[i != j and (a - c) * (a - c) + (b - d) * (b - d) <= r2
                              for j, (c, d) in enumerate(xy)] for i, (a, b) in enumerate(xy)])
            assert np.array_equal(topology.within, want)
            kept.append((topology, topology.within.tobytes()))
            if op == "move":
                sim.mobility_step(w, 40.0)
            elif op == "add":
                w.add_node(100 + len(kept), w.positions[0] + 30.0)
            else:
                w.remove_node(w.ids[2])
        w.topology()
        assert len({raw for _, raw in kept}) > 4   # the graph did change
        for topology, raw in kept:
            assert topology.within.tobytes() == raw


def member_subgraph(graph, members):
    """The members-only copy of the radio graph a session was once handed."""
    return {n: graph.get(n, set()) & members for n in members}


def epoch_outcome(fn):
    try:
        return fn().gk
    except (ProtocolAbort, TreeError) as e:
        return type(e).__name__, str(e)


def world_group(seed):
    """A 24-node world after three moves, and the group root 0 can key on it."""
    world = sim.init_world(small_config(node_count=24), seed)
    for _ in range(3):
        sim.mobility_step(world, 5.0)
    graph = world.graph()
    members = set(world.ids) & set(bfs_parents(graph, 0))
    checker, stranded = sim._least_partitioning_checker(0, graph, members)
    return world, members - stranded, checker


def spawn_joiner(world, members, joiner=100):
    """A newcomer beside the lowest-id member, as in a radio cell; then a move."""
    base = world.positions[world.index(min(members))]
    world.add_node(joiner, base + world.rng.uniform(-50, 50, size=2))
    sim.mobility_step(world, 5.0)
    return joiner


class TestSessionOnWorldGraph:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_trees_and_keys_as_on_the_members_only_graph(self, seed):
        """A session on the world's graph, with every non-member in it,
        builds the trees and agrees the keys of one on the members-only copy."""
        world, members, checker = world_group(seed)
        graph = world.graph()
        full, sub = (GroupSession(g, 0, members, CipherSuite(), seed, checker=checker)
                     for g in (graph, member_subgraph(graph, members)))
        assert epoch_outcome(full.establish) == epoch_outcome(sub.establish)

        joiner = spawn_joiner(world, members)
        graph = world.graph()
        edges = graph[joiner] & full.members
        full.graph, sub.graph = graph, member_subgraph(graph, sub.members | {joiner})
        outcomes = [epoch_outcome(lambda: s.member_join(joiner, edges)) for s in (full, sub)]
        assert outcomes[0] == outcomes[1]
        assert tree_dump(full.tree) == tree_dump(sub.tree)

        # the checker leaves, then the highest-id member
        for pick in (lambda s: s.checker, lambda s: max(s.members)):
            sim.mobility_step(world, 5.0)
            graph = world.graph()
            leaver = pick(full)
            full.graph, sub.graph = graph, member_subgraph(graph, sub.members)
            outcomes = [epoch_outcome(lambda: s.member_leave(leaver)) for s in (full, sub)]
            assert outcomes[0] == outcomes[1]
            assert tree_dump(full.tree) == tree_dump(sub.tree)
            assert full.members == sub.members

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_checker_leave_keys_the_new_checkers_link_to_the_root(self, seed):
        """On these moved graphs the drawn replacement checker was below
        level 1, so the root held no edge key with it until the leave keyed
        that link; the leave commits and the old checker learns nothing."""
        world, members, checker = world_group(seed)
        s = GroupSession(world.graph(), 0, members, CipherSuite(), seed, checker=checker)
        s.establish()
        joiner = spawn_joiner(world, members)
        s.graph = world.graph()
        s.member_join(joiner, s.graph[joiner] & s.members)
        sim.mobility_step(world, 5.0)
        s.graph = world.graph()
        level1 = set(s.tree.children[s.root])
        know, mark = capture_knowledge(s, checker), len(s.transport.messages)
        keys = s.member_leave(checker)
        assert checker not in s.nodes and s.checker not in level1
        assert s.nodes[s.root].state.edge_keys[s.checker] == \
            s.nodes[s.checker].state.edge_keys[s.root]
        gk = s.gk_oracle()
        assert keys.gk == gk and all(n.state.session_key == gk for n in s.nodes.values())
        post = broadcasts_since(s.transport.messages, mark)
        assert gk.data not in forward_secrecy_candidates(s.suite, know, post, s.epoch,
                                                         sorted(s.members))


def reference_shortest_route(graph, src, dst):
    """The goal-directed lowest-ID BFS that `sim.shortest_route` replaced:
    expand each node's neighbours in ascending order from `src` and stop on
    reaching `dst`."""
    if src == dst:
        return [src]
    prev = {src: src}
    frontier = deque([src])
    while frontier and dst not in prev:
        node = frontier.popleft()
        for nb in sorted(graph.get(node, ())):
            if nb not in prev:
                prev[nb] = node
                frontier.append(nb)
    if dst not in prev:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path[::-1]


class TestShortestRoute:
    def test_lowest_id_tie_rule(self):
        # two equal two-hop routes; relay 8 has the lower index, so only
        # the lowest-id rule picks relay 1
        graph = make_graph([(0, 8), (0, 1), (8, 3), (1, 3)])
        topology = topology_of(graph)
        assert topology.index[8] < topology.index[1]
        assert sim.shortest_route(topology, 0, 3) == [0, 1, 3]
        assert sim.shortest_route(topology, 3, 0) == [3, 1, 0]

    def test_source_is_destination(self):
        assert sim.shortest_route(topology_of(make_graph([(0, 1)])), 0, 0) == [0]

    def test_unreachable_destination(self):
        graph = make_graph([(0, 1), (2, 3)])
        assert sim.shortest_route(topology_of(graph), 0, 3) is None

    def test_matches_bfs_oracle_and_routing_table(self):
        rng = random.Random(31)
        for trial in range(10):
            graph = random_geometric(30, 0.25, rng)  # sparse: some trials split
            topology = topology_of(graph)
            for owner in (0, 17):
                dist = bfs_levels(owner, set(graph), graph)
                table = RoutingTable(owner=owner)
                table.rebuild(graph)
                for dst in graph:
                    route = sim.shortest_route(topology, owner, dst)
                    if dst not in dist:
                        assert route is None and dst not in table.next_hop
                        continue
                    assert route[0] == owner and route[-1] == dst
                    assert len(route) - 1 == dist[dst]
                    assert all(b in graph[a] for a, b in zip(route, route[1:]))
                    if dst != owner:
                        assert table.next_hop[dst] == route[1]

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ids=st.lists(st.integers(0, 70), min_size=1, max_size=14, unique=True),
           edges=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40))
    @example(ids=[0, 8, 1, 3], edges=[(0, 1), (0, 2), (1, 3), (2, 3)])  # 0-1-3 ties 0-8-3
    @example(ids=[0, 1, 2, 3, 9, 17], edges=[(0, 1), (2, 3), (4, 5)])
    def test_equals_the_goal_bfs(self, ids, edges):
        # the rows follow `ids`, which is out of ascending order; random
        # edge sets give ties, one-hop pairs, isolated nodes and split
        # components
        graph = {nid: set() for nid in ids}
        for a, b in edges:
            a, b = ids[a % len(ids)], ids[b % len(ids)]
            if a != b:
                graph[a].add(b)
                graph[b].add(a)
        topology = topology_of(graph)
        asked = []
        rows = topology.hop_rows
        topology.hop_rows = lambda roots: asked.extend(roots) or rows(roots)

        nodes = ids + [max(ids) + 1]  # plus one id outside the graph
        for src in nodes:
            for dst in nodes:
                ref = reference_shortest_route(graph, src, dst)
                before = len(asked)
                assert sim.shortest_route(topology, src, dst) == ref
                if src == dst or dst in graph.get(src, ()):
                    assert len(asked) == before  # zero and one hop need no hop counts
        for root in ids:
            (row,) = rows((root,))
            expect = hop_map(graph, root)
            assert row.tolist() == [expect.get(nid, -1) for nid in ids]

    @settings(derandomize=True, max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14),
           ops=st.lists(st.tuples(st.sampled_from(["move", "add", "rejoin", "remove"]),
                                  st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                        max_size=10))
    # a diamond 64-{80, 1}-72 after two leaves and a rejoin of id 1: ids
    # [64, 72, 80, 1], so relay 80 has the lower index and only the id rule
    # picks relay 1
    @example(seed=0, n=2, ops=[("add", 0.15, 0.5), ("add", 0.65, 0.5),
                               ("remove", 0.0, 0.0), ("remove", 0.0, 0.0),
                               ("add", 0.4, 0.3), ("rejoin", 0.4, 0.7)])
    def test_world_routes_follow_every_world_change(self, seed, n, ops):
        # new ids 8 apart scramble set order, and a rejoin re-adds the last
        # removed id at the end of the rows, out of ascending order, as a
        # rejoin through `_apply_schedule_event` does; every row is read
        # before the next change, so a stale one would be served if it
        # survived
        w = sim.init_world(small_config(node_count=n, range_m=200), seed)
        next_id, removed = 64, []
        for kind, a, b in [("move", 1.0, 0.0)] + ops:
            if kind == "move":
                sim.mobility_step(w, 0.5 + 30 * a)
            elif kind in ("add", "rejoin"):
                if kind == "rejoin" and removed:
                    nid = removed.pop()
                else:
                    nid, next_id = next_id, next_id + 8
                w.add_node(nid, np.array([a * w.config.area_width, b * w.config.area_height]))
            elif len(w.ids) > 1:
                removed.append(w.ids[int(a * len(w.ids)) % len(w.ids)])
                w.remove_node(removed[-1])
            graph = reference_connectivity(w)
            topology = w.topology()
            for src in w.ids:
                for dst in w.ids:
                    assert sim.shortest_route(topology, src, dst) == \
                        reference_shortest_route(graph, src, dst)
            rows = topology.hop_rows(w.ids)
            for root, row in zip(w.ids, rows):
                expect = hop_map(graph, root)
                assert row.tolist() == [expect.get(nid, -1) for nid in w.ids]
                assert topology.component(root) == set(expect)
                assert topology.hop_rows((root,))[0] is row  # built once per version


class TestRadioTransport:
    def make_world(self, coords, adversaries=()):
        cfg = small_config(node_count=len(coords))
        w = sim.init_world(cfg, 1)
        for i, c in enumerate(coords):
            w.positions[i] = c
        for nid, kind in adversaries:
            w.adversaries[nid] = kind
        return w

    def test_broadcast_from_isolated_node(self):
        w = self.make_world([(0, 0), (500, 0), (505, 0)])
        t = sim.RadioTransport(w)
        msg = ProtocolMessage(MessageKind.AGREE_STEP1, 0, BROADCAST, (0,), b"x")
        assert t.deliver(msg, {0, 1, 2}) == []

    def test_broadcast_floods_component(self):
        w = self.make_world([(0, 0), (200, 0), (400, 0), (1200, 0)])
        t = sim.RadioTransport(w)
        msg = ProtocolMessage(MessageKind.AGREE_STEP1, 0, BROADCAST, (0,), b"x")
        out = t.deliver(msg, {0, 1, 2, 3})
        assert [r for r, _ in out] == [1, 2]  # 3 is outside the component

    def test_unicast_relayed_on_path(self):
        w = self.make_world([(0, 0), (200, 0), (400, 0)])
        t = sim.RadioTransport(w)
        msg = ProtocolMessage(MessageKind.AGREE_STEP3, 0, 2, (0, 2), b"d")
        assert [r for r, _ in t.deliver(msg, {0, 1, 2})] == [2]

    def test_unicast_out_of_component_reported(self):
        w = self.make_world([(0, 0), (600, 600)])
        t = sim.RadioTransport(w)
        msg = ProtocolMessage(MessageKind.AUTH_STEP1, 0, 1, (0, 1), b"d")
        assert t.deliver(msg, {0, 1}) == []
        assert t.undelivered == 1

    def test_eavesdropper_capture_grows(self):
        w = self.make_world([(0, 0), (200, 0), (150, 100)],
                            adversaries=[(2, sim.EAVESDROPPER)])
        t = sim.RadioTransport(w)
        msg = ProtocolMessage(MessageKind.AUTH_STEP1, 0, 1, (0, 1), b"d")
        t.deliver(msg, {0, 1})
        assert len(t.captured[2]) == 1

    def test_out_of_range_eavesdropper_hears_nothing(self):
        w = self.make_world([(0, 0), (200, 0), (590, 390)],
                            adversaries=[(2, sim.EAVESDROPPER)])
        t = sim.RadioTransport(w)
        msg = ProtocolMessage(MessageKind.AUTH_STEP1, 0, 1, (0, 1), b"d")
        t.deliver(msg, {0, 1})
        assert 2 not in t.captured

    def test_droppers_never_touch_protocol_traffic(self):
        # the dropper is the only relay on the path and the message arrives
        w = self.make_world([(0, 0), (200, 0), (400, 0)],
                            adversaries=[(1, sim.DROPPER)])
        t = sim.RadioTransport(w)
        msg = ProtocolMessage(MessageKind.AGREE_STEP3, 0, 2, (0, 2), b"d")
        assert [r for r, _ in t.deliver(msg, {0, 1, 2})] == [2]


class TestFeatureStream:
    def world_and_pairs(self, cfg, seed):
        w = sim.init_world(cfg, seed)
        return w, sim.traffic_pairs(sorted(w.ids), cfg)

    def test_columns_follow_the_detector_feature_names(self):
        # generate_features writes columns by position: nav 0, rx_rate 2, the
        # two retransmission rates 3:5, degree 5 and route length 6
        assert tuple(sim._BASELINES) == esom.FEATURE_NAMES
        written = ("nav", "rx_rate", "rts_retx_rate", "data_retx_rate",
                   "active_neighbors", "forwarding_nodes")
        assert [esom.FEATURE_NAMES.index(n) for n in written] == [0, 2, 3, 4, 5, 6]

    @settings(derandomize=True, max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1),
           cells=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)),
                          min_size=2, max_size=12, unique=True),
           picks=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                          min_size=1, max_size=10),
           droppers=st.sets(st.integers(0, 11), max_size=5),
           now=st.sampled_from([5.0, 20.0, 45.0, 60.0]),
           rejoin=st.booleans(),
           effect=st.sampled_from([0.0, 4.0, 30.0]),
           payload=st.sampled_from([64.0, 512.0, 4096.0]))
    # a line 0-1-2-3 and an isolated 4: dropper 1 inside the window on the
    # routes 0->3 and 3->0, off the one-hop 2->3; 1->1; 4 reaches nothing
    @example(seed=1, cells=[(0, 0), (1, 0), (2, 0), (3, 0), (6, 4)],
             picks=[(0, 3), (3, 0), (1, 1), (2, 3), (4, 0)], droppers={1}, now=45.0,
             rejoin=False, effect=4.0, payload=512.0)
    # the same outside the window, with id 1 rejoined at the end of the rows
    @example(seed=2, cells=[(0, 0), (1, 0), (2, 0), (3, 0), (6, 4)],
             picks=[(0, 3), (3, 0), (1, 1), (2, 3), (4, 0)], droppers={1, 4}, now=5.0,
             rejoin=True, effect=4.0, payload=512.0)
    # 0-{1, 4}-2 ties; after id 1 rejoins, the rows run [0, 2, 3, 4, 1], so
    # relay 4 (dropper, row 3) has the lower index and only the id rule
    # routes around it
    @example(seed=3, cells=[(0, 1), (1, 0), (2, 1), (6, 4), (1, 2)], picks=[(0, 1)],
             droppers={3}, now=45.0, rejoin=True, effect=4.0, payload=512.0)
    def test_equals_the_scalar_reference(self, seed, cells, picks, droppers, now, rejoin,
                                         effect, payload):
        # a 100 m grid at 150 m range: side and diagonal cells are in range,
        # two cells apart are not, so routes run several hops
        cfg = small_config(node_count=len(cells), range_m=150.0, effect_size=effect,
                           mean_payload=payload)
        w = sim.init_world(cfg, seed)
        w.positions[:] = [(100.0 * x, 100.0 * y) for x, y in cells]
        if rejoin:
            w.remove_node(1)
            w.add_node(1, np.array([100.0 * c for c in cells[1]]))
        ids = w.ids
        for d in droppers:
            if d < len(ids):
                w.adversaries[ids[d]] = sim.DROPPER
        pairs = [(ids[a % len(ids)], ids[b % len(ids)]) for a, b in picks]
        w.time = now
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sim.generate_features(w, pairs, rng)
        ref = generate_features_reference(w, pairs, ref_rng)
        assert list(got) == list(ref)
        for src, (vec, attacked) in ref.items():
            assert got[src][0].tobytes() == vec.tobytes()
            assert got[src][1] is attacked
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_no_adversaries_all_normal(self):
        cfg = small_config()
        w, pairs = self.world_and_pairs(cfg, 4)
        w.time = 30.0  # inside the attack window, but nobody drops
        rng = np.random.default_rng(0)
        out = sim.generate_features(w, pairs, rng)
        assert out and all(not attacked for _, attacked in out.values())

    def test_null_effect_size_matches_baseline(self):
        cfg = small_config(generators=8, destinations=4, attack_start=0, attack_end=60,
                           effect_size=0.0, droppers=(1,))
        w, pairs = self.world_and_pairs(cfg, 4)
        w.adversaries[1] = sim.DROPPER
        w.time = 30.0
        out_a = sim.generate_features(w, pairs, np.random.default_rng(7))
        w.adversaries.clear()
        out_b = sim.generate_features(w, pairs, np.random.default_rng(7))
        for src in out_a:
            assert np.allclose(out_a[src][0], out_b[src][0])

    def test_attack_window_gates_labels(self):
        # force a route through a dropper with a line topology
        cfg = small_config(node_count=3, range_m=250,
                           generators=1, destinations=1, attack_start=20, attack_end=60)
        w = sim.init_world(cfg, 2)
        w.positions[0] = (0, 0)
        w.positions[1] = (200, 0)
        w.positions[2] = (400, 0)
        w.adversaries[1] = sim.DROPPER
        pairs = [(0, 2)]
        rng = np.random.default_rng(3)
        w.time = 10.0
        assert sim.generate_features(w, pairs, rng)[0][1] is False
        w.time = 30.0
        vec, attacked = sim.generate_features(w, pairs, rng)[0]
        assert attacked is True

    def test_effect_shifts_expected_features(self):
        cfg = small_config(node_count=3, generators=1, destinations=1,
                           attack_start=0, attack_end=60, effect_size=6.0)
        w = sim.init_world(cfg, 2)
        w.positions[0] = (0, 0)
        w.positions[1] = (200, 0)
        w.positions[2] = (400, 0)
        w.adversaries[1] = sim.DROPPER
        w.time = 30.0
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        vec_attacked, _ = sim.generate_features(w, [(0, 2)], rng_a)[0]
        w.adversaries.clear()
        vec_clean, _ = sim.generate_features(w, [(0, 2)], rng_b)[0]
        assert vec_attacked[2] < vec_clean[2]      # rx_rate down
        assert vec_attacked[4] > vec_clean[4]      # data retransmissions up
        assert vec_attacked[6] < vec_clean[6]      # forwarding count down


class TestRunScenario:
    def test_seed_required(self):
        with pytest.raises(sim.ScenarioError):
            sim.run_scenario(small_config(), None)

    def test_deterministic_reports(self):
        cfg = small_config(droppers=(3, 7), eavesdroppers=(5,),
                           schedule=(sim.ScheduleEvent(30.0, "global_rekey"),))
        r1 = sim.run_scenario(cfg, 11)
        r2 = sim.run_scenario(cfg, 11)
        assert r1.to_csv() == r2.to_csv()
        assert r1.trace_text() == r2.trace_text()

    def test_pause_sweep_rows(self):
        cfg = small_config(pause_times=(0.0, 20.0, 50.0, 70.0, 200.0), duration=30,
                           generators=6, destinations=3, attack_start=10, attack_end=30)
        report = sim.run_scenario(cfg, 13)
        assert len(report.rows) == 5
        assert [r["pause_time"] for r in report.rows] == [0.0, 20.0, 50.0, 70.0, 200.0]

    def test_dropper_count_sweep_rows(self):
        cfg = small_config(dropper_counts=(1, 2, 3), duration=30,
                           generators=6, destinations=3, attack_start=10, attack_end=30)
        report = sim.run_scenario(cfg, 13)
        assert [r["dropper_count"] for r in report.rows] == [1, 2, 3]

    def test_no_adversaries_epochs_succeed(self):
        cfg = small_config(duration=30,
                           generators=6, destinations=3, attack_start=10, attack_end=30)
        report = sim.run_scenario(cfg, 17)
        row = report.rows[0]
        assert row["detection_rate"] is None       # nothing to detect
        assert row["false_alarm_rate"] is not None
        assert row["epochs_aborted"] == 0
        assert row["epochs_succeeded"] == row["epochs_attempted"]

    def test_an_announce_mismatch_is_a_tamper_event(self, monkeypatch):
        # the radio only loses messages, so one announce digest is flipped in
        # transit; it counts as a tamper just as a reply mismatch would
        cfg = small_config(duration=40, som=SomConfig(rows=6, cols=8, epochs=2),
                           generators=15, destinations=4, attack_start=20, attack_end=40)
        exchange = sim.resp.distribute_local_maps
        flipped = []

        def flip_first_announce(*args, channel, **kw):
            def chan(step, sender, receiver, payload, digest):
                passed = channel(step, sender, receiver, payload, digest)
                if passed is None or step != "announce" or flipped:
                    return passed
                flipped.append(receiver)
                return payload, bytes([digest[0] ^ 1]) + digest[1:]
            return exchange(*args, channel=chan, **kw)

        monkeypatch.setattr(sim.resp, "distribute_local_maps", flip_first_announce)
        report = sim.run_scenario(cfg, 2)
        tampers = [e for e in report.events if e[1] == "map_tamper"]
        assert tampers == [(40.0, "map_tamper", flipped[0], 0, "announce digest mismatch")]
        assert report.rows[0]["tamper_events"] == 1

    def test_paper_scale_detection_end_to_end(self):
        # routes crossing droppers at a 4-sigma effect size keep the
        # downstream detector at or above 95% detection
        cfg = sim.ScenarioConfig(
            node_count=50, area_width=1800, area_height=1000, range_m=250,
            duration=200, root=0,
            speed_min=0, speed_max=10, pause_time=20,
            generators=20, destinations=10, attack_start=50, attack_end=200,
            effect_size=4.0,
            droppers=(3, 7, 11, 19, 23),
            som=SomConfig(rows=12, cols=16, epochs=10), coverage_window=30,
        )
        row = sim.run_scenario(cfg, seed=1).rows[0]
        assert row["detection_rate"] is not None and row["detection_rate"] >= 0.95
        assert row["false_alarm_rate"] <= 0.05

    def test_scheduled_replayer_bursts_are_inert(self):
        cfg = small_config(duration=30, replayers=(5,), replay_at=(15.0, 25.0),
                           generators=6, destinations=3, attack_start=10, attack_end=30)
        report = sim.run_scenario(cfg, 29)
        row = report.rows[0]
        assert row["replay_state_changes"] == 0
        assert any(e[1] == "replay_burst" for e in report.events)

    def test_replay_bursts_do_not_snowball(self):
        # many scheduled bursts: re-injection must not re-capture itself, so
        # burst sizes stay flat across the run
        cfg = small_config(duration=30, replayers=(5,),
                           replay_at=tuple(float(t) for t in range(2, 30, 2)),
                           generators=4, destinations=2, attack_start=10, attack_end=30)
        report = sim.run_scenario(cfg, 31)
        bursts = [int(e[4].split()[1]) for e in report.events if e[1] == "replay_burst"]
        assert bursts and max(bursts) == bursts[-1]  # monotone capture, no blowup
        assert bursts[-1] <= bursts[0] + 400  # grows only with live traffic

    def test_event_at_the_end_of_the_run_applies(self):
        cfg = small_config(duration=30, schedule=(sim.ScheduleEvent(30.0, "global_rekey"),),
                           generators=6, destinations=3, attack_start=10, attack_end=30)
        row = sim.run_scenario(cfg, 29).rows[0]
        assert (row["epochs_attempted"], row["epochs_succeeded"]) == (2, 2)

    def test_replay_at_the_end_of_the_run_fires(self):
        cfg = small_config(duration=30, replayers=(5,), replay_at=(30.0,),
                           generators=6, destinations=3, attack_start=10, attack_end=30)
        report = sim.run_scenario(cfg, 29)
        assert [e[:3] for e in report.events if e[1] == "replay_burst"] == \
            [(30.0, "replay_burst", 5)]
        assert report.rows[0]["replay_state_changes"] == 0

    def test_dropper_sweep_skips_the_other_adversaries(self, monkeypatch):
        cfg = small_config(duration=20, eavesdroppers=(1,), replayers=(2,),
                           dropper_counts=(2,),
                           generators=4, destinations=2, attack_start=5, attack_end=20,
                           som=SomConfig(rows=6, cols=8, epochs=2))
        worlds = []
        init_world = sim.init_world
        monkeypatch.setattr(sim, "init_world",
                            lambda c, seed: worlds.append(init_world(c, seed)) or worlds[-1])
        sim.run_scenario(cfg, 37)
        assert {n: worlds[0].adversaries.get(n) for n in range(1, 5)} == {
            1: sim.EAVESDROPPER, 2: sim.REPLAYER, 3: sim.DROPPER, 4: sim.DROPPER}

    def test_membership_events_apply(self):
        cfg = small_config(duration=40,
                           generators=6, destinations=3, attack_start=10, attack_end=40,
                           schedule=(sim.ScheduleEvent(10.0, "join", 16),
                                     sim.ScheduleEvent(20.0, "leave", 16)))
        report = sim.run_scenario(cfg, 19)
        kinds = [e[1] for e in report.events]
        assert "join" in kinds and "leave" in kinds

    def test_join_of_a_node_already_in_the_world(self, monkeypatch):
        # scenario_basic at seed 42 leaves node 3 out of the group at t = 0;
        # a scheduled join must take it where it stands, not add a second copy
        cfg = sim.parse_scenario(DEMOS / "scenario_basic.cfg")
        cfg = replace(cfg, duration=20.0, schedule=(sim.ScheduleEvent(5.0, "join", 3),),
                      attack_start=10.0, attack_end=20.0,
                      som=SomConfig(rows=6, cols=8, epochs=2))
        worlds = []
        init_world = sim.init_world
        monkeypatch.setattr(sim, "init_world",
                            lambda c, seed: worlds.append(init_world(c, seed)) or worlds[-1])
        report = sim.run_scenario(cfg, 42)
        assert (0.0, "out_of_group", 3, None, "no tree path to the root") in report.events
        world = worlds[0]
        assert sorted(world.ids) == list(range(50))
        assert world.positions.shape == world.waypoints.shape == (50, 2)
        assert len(world.speeds) == len(world.pause_until) == 50
        # node 3 has no in-range member at t = 5, so the join aborts
        assert [e[1:3] for e in report.events if e[0] == 5.0] == [("epoch_abort", "join")]

    @pytest.mark.parametrize("name", ["scenario_basic.cfg", "scenario_dropper_sweep.cfg"])
    def test_routes_rebuilt_only_on_quarantine(self, monkeypatch, name):
        # no routing table is built up front: every rebuild is an alarm
        # receiver quarantining the victim (scenario_basic raises no alarm)
        cfg = sim.parse_scenario(DEMOS / name)
        calls = []
        rebuild = RoutingTable.rebuild
        monkeypatch.setattr(RoutingTable, "rebuild",
                            lambda t, graph: calls.append(t.owner) or rebuild(t, graph))
        report = sim.run_scenario(cfg)
        assert calls == [e[2] for e in report.events if e[1] == "quarantine"]
        # the response columns count the same events
        assert sum(r["alarms"] for r in report.rows) == \
            sum(e[1] == "alarm" for e in report.events)

    @pytest.mark.xfail(strict=True, reason=(
        "a bad join or leave target is logged as epoch_abort but not counted in "
        "epochs_aborted; counting it waits for groups that follow mobility"))
    def test_epoch_abort_events_match_epochs_aborted(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(DEMOS / "scenario_basic.cfg"),
                         "--seed", "42", "--out", str(out)]) == 0
        aborts = sum(line.split(",")[1] == "epoch_abort"
                     for line in (out / "events.log").read_text().splitlines())
        metrics = (out / "metrics.csv").read_text()
        row = dict(zip(*(line.split(",") for line in metrics.splitlines())))
        assert aborts == int(row["epochs_aborted"])

    def test_int_and_float_pause_seed_the_same_cell(self):
        # a pause built in code (20) and one parsed from a file (20.0) are the
        # same scenario, so they must give the same run
        runs = [sim.run_scenario(small_config(
                    duration=20, pause_time=pause,
                    generators=4, destinations=2, attack_start=5, attack_end=20,
                    som=SomConfig(rows=6, cols=8, epochs=2)), 37)
                for pause in (20, 20.0)]
        assert runs[0].to_csv() == runs[1].to_csv()
        assert runs[0].trace_text() == runs[1].trace_text()


# benchmarks/workloads.py RADIO_CONFIG at n = 1000, on an area of the same
# density as its 200-node scenario
RADIO_1000 = """\
node_count = 1000
area_width = 8050
area_height = 4472
range = 250
duration = 30
root = 0
seed = 42
speed_min = 0
speed_max = 10
pause_time = 20
generators = 20
destinations = 10
mean_payload = 512
attack_start = 10
attack_end = 30
effect_size = 4.0
droppers = 5,6,12,25,67,75,98,103,123,166
eavesdroppers = 9,140
replayers = 101,184
som_rows = 12
som_cols = 16
som_epochs = 2
coverage_window = 30
global_rekey_at = 12
join_at = 15:1000
local_rekey_at = 18
leave_at = 20:1000
"""


class TestScale:
    def test_radio_1000_outputs_are_pinned(self, tmp_path, capsys):
        # the paper's scale question: 1000 mobile nodes; the digests are
        # those of the earlier per-frame topology build
        cfg = tmp_path / "radio_1000.cfg"
        cfg.write_text(RADIO_1000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        metrics = (out / "metrics.csv").read_text()
        row = dict(zip(*(line.split(",") for line in metrics.splitlines())))
        assert (row["members"], row["epochs_succeeded"], row["epochs_aborted"]) == \
            ("906", "5", "0")
        assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == \
            "f5b428e5a043c97631b00b58215f4f48527f370d94852b186d11afbb18abe9c8"
        assert hashlib.sha256((out / "events.log").read_bytes()).hexdigest() == \
            "168412956758ac73ebc33ca532cd626e5a9ab52626dfd949d6d0ba6dcc6454a7"


class TestScenarioParser:
    def test_round_trip_and_defaults(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text(
            "node_count = 20\nrange = 200\nseed = 4\n"
            "droppers = 1,2\npause_times = 0,20\n"
            "join_at = 15:20, 25:21\nglobal_rekey_at = 30\n"
            "# a comment\n\n")
        cfg = sim.parse_scenario(path)
        assert cfg.node_count == 20 and cfg.range_m == 200.0 and cfg.seed == 4
        assert cfg.droppers == (1, 2)
        assert cfg.pause_times == (0.0, 20.0)
        kinds = [(e.time, e.kind, e.node) for e in cfg.schedule]
        assert (15.0, "join", 20) in kinds and (30.0, "global_rekey", None) in kinds

    def test_unknown_key_line_anchored(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("node_count = 10\nbogus_key = 3\n")
        with pytest.raises(sim.ScenarioError, match=r"s\.cfg:2"):
            sim.parse_scenario(path)

    def test_bad_value_line_anchored(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("node_count = ten\n")
        with pytest.raises(sim.ScenarioError, match=r"s\.cfg:1"):
            sim.parse_scenario(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("node_count 10\n")
        with pytest.raises(sim.ScenarioError, match="expected 'key = value'"):
            sim.parse_scenario(path)

    def test_validation_failure_reported(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("node_count = 1\n")
        with pytest.raises(sim.ScenarioError):
            sim.parse_scenario(path)

    def test_repeated_list_key_appends(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("droppers = 1\nseed = 2\ndroppers = 4, 3\n")
        assert sim.parse_scenario(path).droppers == (1, 4, 3)

    def test_repeated_scalar_key_fails_on_its_second_line(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("seed = 1\nnode_count = 20\nseed = 2\n")
        with pytest.raises(sim.ScenarioError, match=r"s\.cfg:3: duplicate key 'seed'"):
            sim.parse_scenario(path)

    def test_repeated_list_key_reports_the_bad_line(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("node_count = 30\njoin_at = 5:x\nseed = 1\njoin_at = 7:21\n")
        with pytest.raises(sim.ScenarioError) as err:
            sim.parse_scenario(path)
        assert str(err.value) == f"{path}:2: bad value for join_at: '5:x'"

    # the suite keys of older scenario files are unknown keys too
    @pytest.mark.parametrize("line", ["bogus = 1", "cipher = aesgcm", "hash = sha256",
                                      "key_bits = 128"])
    def test_first_bad_line_wins(self, tmp_path, line):
        path = tmp_path / "s.cfg"
        key = line.split(" = ")[0]
        path.write_text(f"{line}\nnode_count = ten\n")
        with pytest.raises(sim.ScenarioError) as err:
            sim.parse_scenario(path)
        assert str(err.value) == f"{path}:1: unknown key '{key}'"

    @pytest.mark.parametrize("node", [-1, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("key", ["join_at", "leave_at"])
    def test_schedule_node_id_must_fit_below_broadcast(self, tmp_path, key, node):
        path = tmp_path / "s.cfg"
        path.write_text(f"node_count = 20\nseed = 1\n{key} = 10:{node}\n")
        with pytest.raises(sim.ScenarioError,
                           match=rf"schedule node id {node} outside 0\.\.4294967294"):
            sim.parse_scenario(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line", [
        "area_width = {}", "area_height = {}", "range = {}", "duration = {}",
        "speed_min = {}", "speed_max = {}", "pause_time = {}", "pause_times = 0, {}",
        "mean_payload = {}", "attack_start = {}", "attack_end = {}",
        "sample_interval = {}", "effect_size = {}", "hill_quantile = {}",
        "replay_at = 5, {}", "join_at = {}:20", "leave_at = {}:3",
        "global_rekey_at = {}", "local_rekey_at = {}",
    ])
    def test_non_finite_floats_are_refused_on_their_line(self, tmp_path, line, value):
        path = tmp_path / "s.cfg"
        text = line.format(value)
        path.write_text(f"node_count = 20\nseed = 1\n{text}\n")
        key, raw = (part.strip() for part in text.split("=", 1))
        with pytest.raises(sim.ScenarioError) as err:
            sim.parse_scenario(path)
        assert str(err.value) == f"{path}:3: bad value for {key}: {raw!r}"

    @pytest.mark.parametrize("line, message", [
        ("som_rows = 1", "at least 2x2"),
        ("som_rows = 65536", "lattice 65536x16 does not fit the model file"),
        ("som_cols = 65536", "lattice 12x65536 does not fit the model file"),
        ("som_epochs = 0", "epochs must be positive"),
        ("hill_quantile = 1.5", "hill_quantile"),
        ("dropper_counts = 2,-1", "dropper sweep count -1"),
        # 20 ids less the root, the eavesdropper and the replayer leave 17
        ("eavesdroppers = 1\nreplayers = 2\ndropper_counts = 18",
         r"dropper sweep count 18 outside 0\.\.17"),
        ("droppers = 3\neavesdroppers = 3", "node 3 holds more than one adversary role"),
        ("replay_at = 5, -1", r"replay at -1\.0 outside the run"),
        ("replay_at = 200.5", r"replay at 200\.5 outside the run"),
        ("coverage_window = 0", "coverage_window"),
        ("pause_times = 0, -5", r"sweep pause time -5\.0 must be non-negative"),
    ])
    def test_out_of_range_values_are_config_errors(self, tmp_path, line, message):
        path = tmp_path / "s.cfg"
        path.write_text(f"node_count = 20\nseed = 1\n{line}\n")
        with pytest.raises(sim.ScenarioError, match=message) as err:
            sim.parse_scenario(path)
        assert str(err.value).startswith(f"{path}: ")


# every README key set to a value other than its default; join_at repeats
ALL_KEYS = """\
node_count = 30
area_width = 900
area_height = 700
range = 200
duration = 120
root = 2
seed = 9
speed_min = 1
speed_max = 5
pause_time = 15
pause_times = 0, 30
generators = 12
destinations = 6
mean_payload = 256
attack_start = 40
attack_end = 100
sample_interval = 2
effect_size = 3.5
droppers = 4,8
eavesdroppers = 5
replayers = 6,7
replay_at = 50, 90
dropper_counts = 1,3
som_rows = 6
som_cols = 9
som_epochs = 4
hill_quantile = 0.9
coverage_window = 12
join_at = 60:30
leave_at = 80:30
global_rekey_at = 70, 30
local_rekey_at = 90
join_at = 20:31
"""


def run_order(schedule):
    """The order `_run_cell` applies scheduled events in."""
    return sorted(schedule, key=lambda e: (e.time, e.kind, e.node or -1))


class TestScenarioKeys:
    def test_every_key_lands_in_its_field(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text(ALL_KEYS)
        cfg = sim.parse_scenario(path)
        expected = sim.ScenarioConfig(
            node_count=30, area_width=900.0, area_height=700.0, range_m=200.0,
            duration=120.0, root=2,
            speed_min=1.0, speed_max=5.0, pause_time=15.0,
            generators=12, destinations=6, mean_payload=256.0,
            attack_start=40.0, attack_end=100.0,
            sample_interval=2.0, effect_size=3.5,
            droppers=(4, 8), eavesdroppers=(5,), replayers=(6, 7), replay_at=(50.0, 90.0),
            som=SomConfig(rows=6, cols=9, epochs=4, hill_quantile=0.9),
            coverage_window=12,
            schedule=(sim.ScheduleEvent(20.0, "join", 31),
                      sim.ScheduleEvent(30.0, "global_rekey"),
                      sim.ScheduleEvent(60.0, "join", 30),
                      sim.ScheduleEvent(70.0, "global_rekey"),
                      sim.ScheduleEvent(80.0, "leave", 30),
                      sim.ScheduleEvent(90.0, "local_rekey")),
            pause_times=(0.0, 30.0), dropper_counts=(1, 3), seed=9,
        )
        assert replace(cfg, schedule=tuple(run_order(cfg.schedule))) == expected
        assert {line.split("=")[0].strip() for line in ALL_KEYS.splitlines()} == set(sim._KEYS)

    def test_readme_names_exactly_the_parsed_keys(self):
        readme = (DEMOS.parent / "README.md").read_text()
        section = readme.split("## Scenario files", 1)[1].split("\n## ", 1)[0]
        names = set()
        for row in section.splitlines():
            if row.startswith("| `"):
                names.update(re.findall(r"`(\w+)`", row.split("|")[1]))
        assert names == set(sim._KEYS)
        assert len(names) == 32


class TestScenarioStoredOnce:
    """A scenario is one record: the world reads it rather than copying its
    facts, and every field has exactly one file key."""

    def test_world_keeps_the_record_not_copies(self):
        cfg = small_config()
        world = sim.init_world(cfg, 1)
        assert world.config is cfg
        names = {f.name for f in fields(sim.World)}
        assert not names & {"area", "range_m", "mobility"}
        scenario = {f.name for f in fields(sim.ScenarioConfig)}
        assert names & (scenario | {"config"}) == {"config"}

    def test_som_is_the_only_section(self):
        cfg = sim.ScenarioConfig()
        nested = [f.name for f in fields(cfg) if is_dataclass(getattr(cfg, f.name))]
        assert nested == ["som"]

    def test_every_field_has_exactly_one_key(self):
        targets: dict[tuple, list[str]] = {}
        for key, (section, name, _) in sim._KEYS.items():
            targets.setdefault((section, name), []).append(key)
        assert {section for section, _ in targets} == {None, "som"}
        assert sorted(targets.pop((None, "schedule"))) == [
            "global_rekey_at", "join_at", "leave_at", "local_rekey_at"]
        expected = {(None, f.name) for f in fields(sim.ScenarioConfig)
                    if f.name not in ("som", "schedule")}
        expected |= {("som", f.name) for f in fields(SomConfig)}
        assert set(targets) == expected
        assert all(len(keys) == 1 for keys in targets.values())
