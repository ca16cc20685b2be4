import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from manetsec.keytree import (
    Disconnected,
    IsolatedRoot,
    KeyTree,
    TreeError,
    UnknownNode,
    Unreachable,
    attach_member,
    build_tree,
    detach_member,
    dump_tree,
    key_path,
    select_checker,
)

from conftest import FIG4_EDGES, bfs_levels, make_graph, random_geometric


class TestSelectChecker:
    def test_single_neighbor_forced(self, rng):
        graph = make_graph([(0, 9)])
        assert select_checker(0, graph, rng, members=set(graph)) == 9

    def test_fig4_checker_is_root_neighbor(self, fig4_graph):
        for seed in range(20):
            ch = select_checker(1, fig4_graph, random.Random(seed), members=set(fig4_graph))
            assert ch in fig4_graph[1]

    def test_isolated_root(self, rng):
        graph = {0: set()}
        with pytest.raises(IsolatedRoot):
            select_checker(0, graph, rng, members=set(graph))

    def test_uniformity_chi_square(self):
        # 10^4 draws over 4 neighbors; each count within 3 sigma of 2500
        graph = make_graph([(0, 1), (0, 2), (0, 3), (0, 4)])
        rng = random.Random(99)
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        for _ in range(10_000):
            counts[select_checker(0, graph, rng, members=set(graph))] += 1
        sigma = math.sqrt(10_000 * 0.25 * 0.75)
        for c in counts.values():
            assert abs(c - 2500) <= 3 * sigma

    def test_member_filter(self, rng):
        graph = make_graph([(0, 1), (0, 2)])
        assert select_checker(0, graph, rng, members={0, 2}) == 2


class TestBuildTree:
    def test_degenerate_root_only(self):
        graph = make_graph([(1, 5)])
        tree = build_tree(1, {1, 5}, graph, checker=5)
        assert tree.height == 0
        assert tree.members() == {1}

    def test_fig4_height_and_shape(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        assert tree.height == 4
        assert tree.level[1] == 0
        assert len(tree.members()) == 17
        assert 5 not in tree.members()
        assert tree.children[1] == [2, 3, 4]

    def test_bfs_oracle_random_geometric(self):
        rng = random.Random(31)
        for trial in range(10):
            graph = random_geometric(30, 0.35, rng)
            members = set(graph)
            root = 0
            reachable = set(bfs_levels(root, members, graph))
            neighbors = sorted(graph[root] & reachable)
            if not neighbors:
                continue
            checker = neighbors[0]
            body = reachable - {checker}
            sub = {n: graph[n] & body for n in body}
            expected = bfs_levels(root, body, sub)
            if set(expected) != body:
                continue  # checker was a cut vertex; different scenario
            tree = build_tree(root, reachable, graph, checker)
            assert tree.level == expected

    def test_unreachable_reported(self):
        graph = make_graph([(0, 1), (5, 6)])
        with pytest.raises(Unreachable) as e:
            build_tree(0, {0, 1, 5, 6}, graph, checker=1)
        assert e.value.nodes == {5, 6}

    def test_canonical_determinism(self, fig4_graph):
        t1 = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        t2 = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        assert t1 == t2

    def test_parent_is_first_visited_not_lowest_id(self):
        # 5 has two upper neighbors, 3 and 4; 4 ends the lexicographically
        # least shortest path 0-1-4-5, so BFS visits it before 3 (via 0-2-3)
        graph = make_graph([(0, 1), (0, 2), (0, 9), (1, 4), (2, 3), (3, 5), (4, 5)])
        tree = build_tree(0, set(graph), graph, checker=9)
        assert tree.level[3] == tree.level[4] == 2
        assert tree.parent[5] == 4
        assert key_path(tree, 5) == [5, 4, 1, 0]


class TestKeyPath:
    def test_root_path(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        assert key_path(tree, 1) == [1]

    def test_fig5_join_path(self, fig4_graph):
        graph = {n: set(v) for n, v in fig4_graph.items()}
        graph[19] = {6}
        graph[6].add(19)
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        tree = attach_member(tree, 19, graph)
        assert key_path(tree, 19) == [19, 6, 2, 1]

    def test_length_matches_level(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        for n in tree.members():
            assert len(key_path(tree, n)) == tree.level[n] + 1

    def test_unknown_node(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        with pytest.raises(UnknownNode):
            key_path(tree, 99)
        with pytest.raises(UnknownNode):
            key_path(tree, 5)  # checker never appears in a key path


class TestAttachMember:
    def test_adjacent_to_root(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        graph = {n: set(v) for n, v in fig4_graph.items()}
        graph[30] = {1}
        graph[1].add(30)
        t2 = attach_member(tree, 30, graph)
        assert t2.level[30] == 1 and t2.parent[30] == 1

    def test_fig5_leaf_under_level2(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        graph = {n: set(v) for n, v in fig4_graph.items()}
        graph[19] = {6}
        graph[6].add(19)
        t2 = attach_member(tree, 19, graph)
        assert t2.level[19] == 3 and t2.parent[19] == 6
        assert t2.children[6] == [10, 11, 19]

    def test_minimal_level_rule_enumerated(self):
        # joiner adjacent to nodes at levels 2 and 3 attaches under level 2;
        # enumerate every placement of the two anchors in a small chain tree
        base = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 9)])
        tree = build_tree(0, {0, 1, 2, 3, 4, 9}, base, checker=9)
        lvl2 = [n for n in tree.members() if tree.level[n] == 2]
        lvl3 = [n for n in tree.members() if tree.level[n] == 3]
        for a in lvl2:
            for b in lvl3:
                graph = {n: set(v) for n, v in base.items()}
                graph[50] = {a, b}
                graph[a].add(50)
                graph[b].add(50)
                t2 = attach_member(tree, 50, graph)
                assert t2.level[50] == 3 and t2.parent[50] == a

    def test_disconnected_joiner(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        graph = {n: set(v) for n, v in fig4_graph.items()}
        graph[40] = set()
        with pytest.raises(Disconnected):
            attach_member(tree, 40, graph)


class TestDetachMember:
    def make(self, fig4_graph):
        return build_tree(1, set(range(1, 19)), fig4_graph, checker=5)

    def test_leaf_leaves(self, fig4_graph):
        tree = self.make(fig4_graph)
        res = detach_member(tree, 14, fig4_graph)
        assert 14 not in res.tree
        assert res.affected == {10, 6, 2, 1}
        assert res.dropped == set()

    def test_checker_leave_relayers_around_replacement(self, fig4_graph):
        graph = {n: set(v) for n, v in fig4_graph.items()}
        graph[7].add(8)  # 2's and 3's subtrees can reach the root through each other
        graph[8].add(7)
        reduced = {n: v - {5} for n, v in graph.items() if n != 5}
        tree = build_tree(1, set(range(1, 19)), graph, checker=5)
        for c, dropped in ((2, {6, 10, 11, 14, 15, 16}), (3, set()), (4, {9})):
            res = detach_member(tree, 5, graph, checker=c)
            assert res.dropped == dropped
            assert res.tree == build_tree(1, set(range(1, 19)) - {5} - dropped, reduced,
                                          checker=c)
            assert res.tree.checker == c and c not in res.tree
            assert res.affected == set(key_path(tree, c)[1:]) | {
                k for k in tree.children[c] if k in res.tree}

    def test_checker_leave_needs_replacement(self, fig4_graph):
        with pytest.raises(TreeError):
            detach_member(self.make(fig4_graph), 5, fig4_graph)

    def test_internal_rebuild_identity(self, fig4_graph):
        # removing an internal node yields exactly the from-scratch tree
        graph = {n: set(v) for n, v in fig4_graph.items()}
        for a, b in ((10, 7), (11, 8)):  # alternate paths for both orphans
            graph[a].add(b)
            graph[b].add(a)
        tree = build_tree(1, set(range(1, 19)), graph, checker=5)
        res = detach_member(tree, 6, graph)
        assert res.dropped == set()
        assert res.affected == {2, 1, 10, 11}
        reduced = {n: v - {6} for n, v in graph.items() if n != 6}
        rebuilt = build_tree(1, set(range(1, 19)) - {6}, reduced, checker=5)
        assert res.tree == rebuilt
        body = res.tree.members()
        sub = {n: reduced[n] & body for n in body}
        assert res.tree.level == bfs_levels(1, body, sub)

    def test_partitioned_subtree_dropped(self, fig4_graph):
        tree = self.make(fig4_graph)
        res = detach_member(tree, 6, fig4_graph)  # 10, 11 and below hang off 6 only
        assert res.dropped == {10, 11, 14, 15, 16}
        assert res.affected == {2, 1}

    def test_unknown(self, fig4_graph):
        with pytest.raises(UnknownNode):
            detach_member(self.make(fig4_graph), 77, fig4_graph)


class TestDump:
    def test_format(self, fig4_graph):
        tree = build_tree(1, set(range(1, 19)), fig4_graph, checker=5)
        text = dump_tree(tree)
        lines = text.strip().split("\n")
        assert lines[0] == "checker,5"
        assert lines[1] == "0,1,"
        assert lines[2] == "1,2,1"
        assert len(lines) == 18  # header + 17 members
        # sorted by (level, id)
        keys = [tuple(map(int, l.split(",")[:2])) for l in lines[1:]]
        assert keys == sorted(keys)


def built_layers(tree):
    """build_tree's former level/children loop, over `parent` in visit order."""
    level = {tree.root: 0}
    children = {tree.root: []}
    for node, up in tree.parent.items():
        level[node] = level[up] + 1
        children[node] = []
        children[up].append(node)
    return level, children


def attached_layers(layers, joiner, parent):
    """attach_member's former patch of copied level and children maps."""
    level = dict(layers[0])
    children = {k: list(v) for k, v in layers[1].items()}
    level[joiner] = level[parent] + 1
    children[joiner] = []
    children[parent] = sorted(children[parent] + [joiner])
    return level, children


class TestDerivedLayers:
    """`level` and `children` are derived from `parent`; under join/leave
    churn they agree with the parent map and with the loops that once
    stored them."""

    def check(self, tree, layers):
        order = {n: i for i, n in enumerate(tree.parent)}
        for child, up in tree.parent.items():
            assert up == tree.root or order[up] < order[child]
        for n in tree.members():
            assert tree.children[n] == sorted(c for c, p in tree.parent.items() if p == n)
            assert tree.level[n] == len(key_path(tree, n)) - 1
        assert (tree.level, tree.children) == layers

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 25),
           ops=st.lists(st.tuples(st.sampled_from(["join", "leave"]), st.integers(0, 2**16)),
                        min_size=1, max_size=20))
    def test_join_leave_churn(self, seed, n, ops):
        rng = random.Random(seed)
        graph = random_geometric(n, 0.4, rng)
        members = set(bfs_levels(0, set(graph), graph))
        try:
            checker = select_checker(0, graph, rng, members)
            tree = build_tree(0, members, graph, checker)
        except TreeError:
            return  # isolated root, or a checker that cuts part of the group off
        layers = built_layers(tree)
        self.check(tree, layers)
        next_id = n
        for kind, pick in ops:
            group = sorted(tree.members() | {tree.checker})
            if kind == "join":
                anchors = {group[(pick + 5 * k) % len(group)] for k in range(1 + pick % 3)}
                graph = {v: set(nbs) for v, nbs in graph.items()}
                graph[next_id] = set(anchors)
                for a in anchors:
                    graph[a].add(next_id)
                try:
                    tree = attach_member(tree, next_id, graph)
                except Disconnected:
                    continue  # its only anchor was the checker
                layers = attached_layers(layers, next_id, tree.parent[next_id])
                next_id += 1
            else:
                candidates = [v for v in group if v != tree.root]
                if len(candidates) < 2:
                    continue
                leaver = candidates[pick % len(candidates)]
                try:
                    new_checker = (select_checker(0, graph, rng, set(group) - {leaver})
                                   if leaver == tree.checker else None)
                    res = detach_member(tree, leaver, graph, checker=new_checker)
                except TreeError:
                    continue  # no replacement checker next to the root
                # the graph drops the leaver as the session does
                tree = res.tree
                graph = {v: nbs - {leaver} for v, nbs in graph.items() if v != leaver}
                layers = built_layers(tree)
            self.check(tree, layers)
