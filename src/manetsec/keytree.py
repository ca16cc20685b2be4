"""Rooted key tree layered by hop distance, plus the checker designation.

The tree drives the bottom-up key initiation flow: level(n) is the BFS hop
distance from the root over group members, a node's parent is the neighbor
one level up that the BFS visited first (not always the lowest-ID one), and
the checker (a one-hop neighbor of the root) sits outside the tree entirely.
All mutators return new trees; treat instances as immutable snapshots.

Every traversal in the package follows one rule, implemented once in
`bfs_parents`: breadth-first from a root, expanding each node's neighbors in
ascending ID order, so the first (and kept) path to a node is its
lexicographically least shortest path from the root. Tree layering and the
response layer's first hops come from it. Radio routes (`sim.shortest_route`)
are the same lowest-ID BFS paths, walked greedily over hop counts from the
radio's in-range matrix instead.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

NodeId = int

# Connectivity graphs are plain symmetric adjacency maps: id -> set of ids.
Graph = dict[NodeId, set[NodeId]]


class TreeError(Exception):
    pass


class IsolatedRoot(TreeError):
    """Root has no one-hop neighbor, so no checker can be chosen."""


class Unreachable(TreeError):
    def __init__(self, nodes: set[NodeId]):
        super().__init__(f"members not reachable from root: {sorted(nodes)}")
        self.nodes = nodes


class UnknownNode(TreeError):
    pass


class Disconnected(TreeError):
    """A joining node has no neighbor inside the tree."""


@dataclass(frozen=True)
class KeyTree:
    """A key tree is its parent map; `level` and `children` are derived.

    Invariant: in `parent`'s insertion order every parent precedes its
    children. `bfs_parents` lists nodes in visit order and `attach_member`
    appends the joiner, so both constructors meet it.
    """

    root: NodeId
    parent: dict[NodeId, NodeId]            # absent for root
    checker: NodeId

    @cached_property
    def level(self) -> dict[NodeId, int]:
        """Hop distance from the root of every tree node, in one pass."""
        level = {self.root: 0}
        for node, up in self.parent.items():
            level[node] = level[up] + 1
        return level

    @cached_property
    def children(self) -> dict[NodeId, list[NodeId]]:
        """Every tree node -> its children in ascending id order."""
        children: dict[NodeId, list[NodeId]] = {n: [] for n in self.level}
        for node in sorted(self.parent):
            children[self.parent[node]].append(node)
        return children

    @property
    def height(self) -> int:
        return max(self.level.values())

    def members(self) -> set[NodeId]:
        return set(self.level)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.level


@dataclass
class DetachResult:
    tree: KeyTree
    affected: set[NodeId]   # ancestors + surviving children of the leaver (or new checker)
    dropped: set[NodeId]    # members left without any path to the root (reported, out of group)


def select_checker(root: NodeId, graph: Graph, rng: random.Random,
                   members: set[NodeId]) -> NodeId:
    """Pick a uniformly random one-hop neighbor of the root among `members` as checker."""
    candidates = [c for c in sorted(graph.get(root, set()) - {root}) if c in members]
    if not candidates:
        raise IsolatedRoot(f"root {root} has no eligible one-hop neighbor")
    return candidates[rng.randrange(len(candidates))]


def build_tree(root: NodeId, members: set[NodeId], graph: Graph, checker: NodeId) -> KeyTree:
    """BFS layering of members minus the checker.

    A node's parent is its first-visited neighbor one level up: the one that
    ends its lexicographically least shortest path from the root.
    """
    if checker not in members:
        raise TreeError(f"checker {checker} is not a group member")
    if root == checker:
        raise TreeError("root cannot be its own checker")
    body = members - {checker}
    if root not in body:
        raise TreeError(f"root {root} is not a group member")

    parent = bfs_parents(graph, root, enter=body.__contains__)
    missing = body - parent.keys()
    if missing:
        raise Unreachable(missing)
    del parent[root]
    return KeyTree(root=root, parent=parent, checker=checker)


def bfs_parents(graph: Graph, root: NodeId,
                enter: Callable[[NodeId], bool] | None = None) -> dict[NodeId, NodeId]:
    """Lowest-ID BFS from `root`: each reached node -> its parent, root -> root.

    Keys are in visit order. Neighbors are expanded in ascending ID order,
    and only nodes that `enter` accepts are entered (the root always is).
    """
    parent = {root: root}
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        for nb in sorted(graph.get(node, ())):
            if nb in parent or (enter is not None and not enter(nb)):
                continue
            parent[nb] = node
            frontier.append(nb)
    return parent


def key_path(tree: KeyTree, node: NodeId) -> list[NodeId]:
    """Chain of ancestors from `node` up to and including the root."""
    if node not in tree:
        raise UnknownNode(f"node {node} not in tree")
    path = [node]
    while path[-1] != tree.root:
        path.append(tree.parent[path[-1]])
    return path


def attach_member(tree: KeyTree, new_node: NodeId, graph: Graph) -> KeyTree:
    """Place a joiner one level below its shallowest in-tree neighbor.

    This is the local placement rule of the joining flow; existing nodes keep
    their levels (full re-layering happens at the next from-scratch build).
    """
    if new_node in tree or new_node == tree.checker:
        raise TreeError(f"node {new_node} already belongs to the group")
    in_tree = [nb for nb in graph.get(new_node, set()) if nb in tree]
    if not in_tree:
        raise Disconnected(f"joiner {new_node} has no neighbor inside the tree")
    best_level = min(tree.level[nb] for nb in in_tree)
    parent = min(nb for nb in in_tree if tree.level[nb] == best_level)
    return KeyTree(tree.root, {**tree.parent, new_node: parent}, tree.checker)


def detach_member(tree: KeyTree, leaver: NodeId, graph: Graph,
                  checker: NodeId | None = None) -> DetachResult:
    """Remove a member and restore the canonical BFS layering.

    The reduced membership is re-layered from scratch on `graph`, where the
    leaver is no member and so never entered; orphaned subtrees that lose
    every path to the root are reported dropped. A leaving checker must name
    its replacement `checker`, a tree member that leaves the body and takes
    the leaver's place in `affected` (its ancestors and former children still
    in the tree); any other leaver keeps the current checker.
    """
    if leaver == tree.root:
        raise TreeError("root cannot be detached; the group dissolves instead")
    if leaver != tree.checker:
        moved, checker = leaver, tree.checker
    elif checker is None:
        raise TreeError("a leaving checker needs a replacement checker")
    else:
        moved = checker
    ancestors = key_path(tree, moved)[1:]  # UnknownNode for a non-member
    former_children = list(tree.children[moved])

    remaining = (tree.members() | {tree.checker}) - {leaver}
    # Strip unreachable members rather than failing: they fall out of the group.
    try:
        new_tree = build_tree(tree.root, remaining, graph, checker)
        dropped: set[NodeId] = set()
    except Unreachable as e:
        dropped = e.nodes
        new_tree = build_tree(tree.root, remaining - dropped, graph, checker)

    affected = set(ancestors) | {c for c in former_children if c in new_tree}
    return DetachResult(tree=new_tree, affected=affected, dropped=dropped)


def dump_tree(tree: KeyTree) -> str:
    """Debug dump: checker header then one `level,id,parent_id` line per node."""
    lines = [f"checker,{tree.checker}"]
    for node in sorted(tree.level, key=lambda n: (tree.level[n], n)):
        p = tree.parent.get(node)
        lines.append(f"{tree.level[node]},{node},{'' if p is None else p}")
    return "\n".join(lines) + "\n"
