"""Whole-graph traversals on the snapshot sweeps ≡ their hand-rolled loops.

Three traversals outside ``repro.network.paths`` used to walk
``graph.adjacency()`` with their own BFS/DFS loops.  They now call
``bfs_tree_parents``/``bfs_distances`` on ``graph.compact()``, whose
results (a tree view, a dict) are in BFS discovery order:

* ``approximate_edge_betweenness`` — the scores *and* their insertion
  order, because the jamming target ranking reads them;
* the partition fault's BFS region, checked through the channels
  ``PartitionSpec`` cuts (and the order it cuts them in);
* ``largest_component_nodes``.

Each is compared with the deleted loop, kept in ``tests/bfs_reference.py``,
on seeded BA graphs below and above ``VECTOR_SWEEP_MIN_NODES``, so both
sweep kernels are exercised without forcing the threshold.  So is the
tree view itself, forwards and reversed, as edge betweenness reads it.
"""

from __future__ import annotations

import random

import bfs_reference as reference
import pytest

from repro.network.compact import CompactTopology
from repro.network.dynamics import ChannelEventType
from repro.network.graph import ChannelGraph
from repro.network.paths import bfs_tree_parents
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    largest_component_nodes,
    uniform_sampler,
)
from repro.sim.faults import (
    PartitionSpec,
    _sort_key,
    approximate_edge_betweenness,
)

SIZES = (50, 300, 2_500)
SEEDS = (0, 1, 2)


def test_largest_size_takes_the_vectorized_sweeps():
    assert SIZES[0] < CompactTopology.VECTOR_SWEEP_MIN_NODES <= SIZES[-1]


def _ba_graph(n_nodes: int, seed: int) -> ChannelGraph:
    rng = random.Random(1_000 * n_nodes + seed)
    edges = barabasi_albert_edges(n_nodes, 2, rng)
    return build_channel_graph(edges, uniform_sampler(50.0, 150.0), rng)


@pytest.fixture(scope="module", params=SIZES, ids=lambda n: f"n{n}")
def graphs(request) -> list[ChannelGraph]:
    return [_ba_graph(request.param, seed) for seed in SEEDS]


def test_tree_parents_match_the_dict_loop(graphs):
    for graph in graphs:
        adjacency = graph.adjacency()
        snapshot = graph.compact()
        for source in graph.nodes[:: len(graph.nodes) // 4]:
            tree = bfs_tree_parents(snapshot, source)
            expected = reference.bfs_tree_parents(adjacency, source)
            assert list(tree.items()) == list(expected.items())
            assert list(reversed(tree.items())) == list(
                reversed(expected.items())
            )


def test_edge_betweenness_scores_and_order(graphs):
    for seed, graph in enumerate(graphs):
        expected = reference.approximate_edge_betweenness(
            graph, random.Random(seed)
        )
        scores = approximate_edge_betweenness(graph, random.Random(seed))
        assert list(scores.items()) == list(expected.items())


@pytest.mark.parametrize("fraction", (0.05, 0.3))
def test_partition_cuts_the_reference_region(graphs, fraction):
    for graph in graphs:
        seed = max(
            graph.nodes, key=lambda node: (graph.degree(node), _sort_key(node))
        )
        size = max(1, int(fraction * len(graph.nodes)))
        region = reference.partition_region(graph, seed, size)
        expected = [
            (channel.a, channel.b)
            for channel in graph.channels()
            if (channel.a in region) != (channel.b in region)
        ]
        plan = PartitionSpec(fraction=fraction).compile(
            graph, random.Random(0), horizon=100.0
        )
        closed = [
            (event.a, event.b)
            for event in plan.events
            if event.kind is ChannelEventType.CLOSE
        ]
        assert expected and closed == expected


def _fragment(graph: ChannelGraph, hubs: int) -> None:
    """Close every channel of the ``hubs`` highest-degree nodes."""
    ranked = sorted(graph.nodes, key=lambda node: -graph.degree(node))
    for hub in ranked[:hubs]:
        for neighbor in graph.adjacency()[hub]:
            graph.remove_channel(hub, neighbor)


def test_largest_component(graphs):
    for graph in graphs:
        assert largest_component_nodes(graph) == (
            reference.largest_component_nodes(graph)
        )
    fragmented = graphs[0].copy()
    _fragment(fragmented, 5)
    expected = reference.largest_component_nodes(fragmented)
    assert len(expected) < fragmented.num_nodes()
    assert largest_component_nodes(fragmented) == expected


def test_largest_component_breaks_size_ties_the_same_way():
    # Three equal components: the winner is the one whose node the walk
    # of the remaining-node set reaches first.
    graph = ChannelGraph()
    for offset in (0, 1_000, 2_000):
        for u in range(4):
            graph.add_channel(offset + u, offset + u + 1, 1.0, 1.0)
    expected = reference.largest_component_nodes(graph)
    assert len(expected) == 5
    assert largest_component_nodes(graph) == expected
