"""The routing table's open-event depth rule, checked against BFS distances.

``RoutingTable._layer_touched`` reads each open endpoint's depth off the
cached BFS tree's parent pointers.  Its verdict must equal the rule as
stated in hop distances from the layer's root: an open touches the layer
when exactly one endpoint is reachable from the root, or when both are
and their distances differ by more than one.  Graphs mix a large
component, a small one and isolated nodes, and open batches may name
brand-new nodes, so every branch of the rule is exercised.  Seeded
stdlib :mod:`random` only: every failure reproduces from its seed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.routing_table import RoutingTable, _node_depth
from repro.network.paths import bfs_distances
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)


def _random_graph(rng: random.Random, n_nodes: int):
    graph = build_channel_graph(
        barabasi_albert_edges(n_nodes, 2, rng), uniform_sampler(10.0, 20.0), rng
    )
    # A second component on fresh ids, and a few isolated nodes.
    for u, v in barabasi_albert_edges(8, 1, rng):
        graph.add_channel(f"c{u}", f"c{v}", 10.0, 10.0)
    for index in range(3):
        graph.add_node(f"lone{index}")
    return graph


def _reference_touched(distances: dict, opens: list) -> bool:
    for a, b in opens:
        depth_a = distances.get(a)
        depth_b = distances.get(b)
        if depth_a is None and depth_b is None:
            continue
        if depth_a is None or depth_b is None:
            return True
        if abs(depth_a - depth_b) > 1:
            return True
    return False


@pytest.mark.parametrize("seed", range(8))
def test_layer_verdict_matches_bfs_distances(seed):
    rng = random.Random(seed)
    graph = _random_graph(rng, rng.choice((30, 150)))
    topology = graph.compact()
    nodes = graph.nodes
    candidates = nodes + ["brand-new-a", "brand-new-b"]
    table = RoutingTable(m=1)
    verdicts = set()
    for _ in range(12):
        root = rng.choice(nodes)
        table._source_tree(root, topology)
        layer = table._source_layers[root]
        distances = bfs_distances(topology, root)
        for node in candidates:
            assert _node_depth(layer.parents, node) == distances.get(node)
        for _ in range(10):
            opens = [
                tuple(rng.sample(candidates, 2))
                for _ in range(rng.randrange(1, 4))
            ]
            verdict = table._layer_touched(layer, [], opens)
            assert verdict == _reference_touched(distances, opens)
            verdicts.add(verdict)
    assert verdicts == {True, False}, "calibration: both verdicts must occur"
