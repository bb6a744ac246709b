"""Reference traversals that walk a plain adjacency mapping.

Every search in ``repro`` walks a
:class:`~repro.network.compact.CompactTopology`, into which a mapping is
interned first.  The loops below walk the mapping itself, and share no
code with those kernels:

* the dict-based BFS that ``repro.network.paths`` ran on mappings (with
  its ``_reconstruct``);
* Yen's algorithm and Spider's greedy edge-disjoint selection on top of
  that BFS (the Yen loop is the legacy one of
  ``benchmarks/test_bench_perf_routing.py``);
* the hand-rolled sweeps that ``repro.sim.faults`` (edge betweenness,
  the partition region) and ``repro.network.topology`` (the largest
  component) ran before they moved onto the snapshot.

The tests check the kernels against them: path searches must match
exactly below ``CompactTopology.BIDIRECTIONAL_MIN_NODES`` and in length
above it, and full sweeps must match in content and order at every size.
These loops predate the endpoint rule of ``repro.network.paths``; pass
them endpoints that are keys of the mapping.

:func:`distances_idx` and :func:`bfs_tree` give the two full sweeps of a
snapshot in the kernels' own shapes (an index dict, two index arrays),
computed by the dict loops; :func:`use_reference_sweeps` puts them in
place of the kernels for a whole run.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Mapping

import numpy as np

from repro.network.channel import NodeId
from repro.network.compact import CompactTopology
from repro.network.graph import ChannelGraph
from repro.network.paths import Adjacency, EdgePredicate, Path
from repro.sim.faults import _pair_key

# ---------------------------------------------------------------------- BFS


def bfs_shortest_path(
    adjacency: Adjacency,
    source: NodeId,
    target: NodeId,
    edge_ok: EdgePredicate | None = None,
    blocked_nodes: set[NodeId] | None = None,
) -> Path | None:
    """Fewest-hop path from ``source`` to ``target``, or ``None``."""
    if source == target:
        return [source]
    if source not in adjacency or target not in adjacency:
        return None
    blocked_set = blocked_nodes or set()
    parent: dict[NodeId, NodeId] = {source: source}
    queue: deque[NodeId] = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in parent or v in blocked_set:
                continue
            if edge_ok is not None and not edge_ok(u, v):
                continue
            parent[v] = u
            if v == target:
                return _reconstruct(parent, source, target)
            queue.append(v)
    return None


def _reconstruct(
    parent: Mapping[NodeId, NodeId], source: NodeId, target: NodeId
) -> Path:
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def bfs_distances(
    adjacency: Adjacency,
    source: NodeId,
    edge_ok: EdgePredicate | None = None,
) -> dict[NodeId, int]:
    """Hop distance from ``source`` to every reachable node."""
    dist = {source: 0}
    queue: deque[NodeId] = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):  # tolerate dangling references
            if v in dist:
                continue
            if edge_ok is not None and not edge_ok(u, v):
                continue
            dist[v] = dist[u] + 1
            queue.append(v)
    return dist


def bfs_tree_parents(
    adjacency: Adjacency, source: NodeId
) -> dict[NodeId, NodeId]:
    """Parent pointers of a BFS spanning tree rooted at ``source``."""
    parent = {source: source}
    queue: deque[NodeId] = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def distances_idx(
    snapshot: CompactTopology, src: int, adjacency: Adjacency | None = None
) -> dict[int, int]:
    """``snapshot.distances_idx(src)``, by the dict loop.

    Walks ``adjacency`` (by default the snapshot's own mapping view),
    whose node and neighbor order must be the snapshot's.
    """
    walked = snapshot if adjacency is None else adjacency
    index = snapshot.index_of
    return {
        index(node): depth
        for node, depth in bfs_distances(walked, snapshot.nodes[src]).items()
    }


def bfs_tree(
    snapshot: CompactTopology, src: int, adjacency: Adjacency | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``snapshot.bfs_tree(src)``'s ``(parent, order)``, by the dict loop."""
    walked = snapshot if adjacency is None else adjacency
    index = snapshot.index_of
    parent = [-1] * snapshot.num_nodes
    order = []
    for node, up in bfs_tree_parents(walked, snapshot.nodes[src]).items():
        parent[index(node)] = index(up)
        order.append(index(node))
    return np.array(parent), np.array(order)


def use_reference_sweeps(monkeypatch) -> None:
    """Run every unconstrained full sweep on the dict loops above.

    A ``slot_ok`` sweep keeps the kernel's serial loop.  The patch lasts
    as long as ``monkeypatch`` (or its ``context()``) does.
    """
    kernel = CompactTopology.distances_idx

    def sweep(self, src, slot_ok=None):
        if slot_ok is not None:
            return kernel(self, src, slot_ok)
        return distances_idx(self, src)

    monkeypatch.setattr(CompactTopology, "distances_idx", sweep)
    monkeypatch.setattr(CompactTopology, "bfs_tree", bfs_tree)


# ------------------------------------------------- multi-path on top of BFS


def yen_k_shortest_paths(adjacency, source, target, k, edge_ok=None):
    """Yen's algorithm: up to ``k`` loopless paths, ties in ``repr`` order."""
    if k <= 0:
        return []
    first = bfs_shortest_path(adjacency, source, target, edge_ok=edge_ok)
    if first is None:
        return []
    paths = [first]
    candidates = {}

    def key_repr(key):
        return tuple(repr(node) for node in key)

    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            removed = set()
            for accepted in paths:
                if accepted[: i + 1] == root and len(accepted) > i + 1:
                    removed.add((accepted[i], accepted[i + 1]))
            blocked = set(root[:-1])

            def spur_edge_ok(u, v):
                if (u, v) in removed:
                    return False
                return edge_ok is None or edge_ok(u, v)

            spur = bfs_shortest_path(
                adjacency,
                spur_node,
                target,
                edge_ok=spur_edge_ok,
                blocked_nodes=blocked,
            )
            if spur is not None:
                candidate = root[:-1] + spur
                if len(set(candidate)) == len(candidate):
                    candidates.setdefault(tuple(candidate), candidate)
        if not candidates:
            break
        best = min(candidates, key=lambda key: (len(key), key_repr(key)))
        paths.append(candidates.pop(best))
    return paths


def edge_disjoint_shortest_paths(adjacency, source, target, k):
    """Greedy: take the shortest path, remove its directed edges, repeat."""
    used: set[tuple[NodeId, NodeId]] = set()
    paths = []
    for _ in range(k):
        path = bfs_shortest_path(
            adjacency, source, target, edge_ok=lambda u, v: (u, v) not in used
        )
        if path is None:
            break
        paths.append(path)
        used.update(zip(path, path[1:]))
    return paths


# ------------------------------------------------------ whole-graph sweeps


def approximate_edge_betweenness(
    graph: ChannelGraph,
    rng: random.Random,
    samples: int = 64,
) -> dict[tuple, float]:
    """Sampled single-parent edge betweenness, in scoring order."""
    adjacency = graph.adjacency()
    nodes = graph.nodes
    sources = (
        rng.sample(nodes, samples) if len(nodes) > samples else list(nodes)
    )
    scores: dict[tuple, float] = {}
    for source in sources:
        parent: dict[NodeId, NodeId | None] = {source: None}
        order = [source]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for neighbor in adjacency.get(node, ()):
                if neighbor not in parent:
                    parent[neighbor] = node
                    order.append(neighbor)
        weight = {node: 1.0 for node in order}
        for node in reversed(order):
            up = parent[node]
            if up is None:
                continue
            key = _pair_key(up, node)
            scores[key] = scores.get(key, 0.0) + weight[node]
            weight[up] += weight[node]
    return scores


def partition_region(
    graph: ChannelGraph, seed: NodeId, region_size: int
) -> set[NodeId]:
    """The BFS region a partition fault grows from ``seed``."""
    region = {seed}
    frontier = [seed]
    adjacency = graph.adjacency()
    while frontier and len(region) < region_size:
        next_frontier = []
        for node in frontier:
            for neighbor in adjacency.get(node, ()):
                if neighbor not in region:
                    region.add(neighbor)
                    next_frontier.append(neighbor)
                    if len(region) >= region_size:
                        break
            if len(region) >= region_size:
                break
        frontier = next_frontier
    return region


def largest_component_nodes(graph: ChannelGraph) -> set[NodeId]:
    """Nodes of the largest connected component (undirected sense)."""
    adjacency = graph.adjacency()
    remaining = set(adjacency)
    best: set[NodeId] = set()
    while remaining:
        start = next(iter(remaining))
        component = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in component:
                    component.add(v)
                    stack.append(v)
        remaining -= component
        if len(component) > len(best):
            best = component
    return best
