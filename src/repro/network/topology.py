"""Topology generators for offchain networks.

The paper evaluates on two crawled topologies — Ripple (pruned to 1,870
nodes / 17,416 edges) and Lightning (2,511 nodes / 36,016 channels) — plus
Watts–Strogatz graphs for the testbed (§5.2).  The crawls are not available
offline, so this module provides generators that reproduce the properties
the routing algorithms are sensitive to (see DESIGN.md §4):

* node/edge counts and heavy-tailed degree distribution (preferential
  attachment for Ripple/Lightning);
* the paper's fund-placement rules: Ripple funds are evened across channel
  directions (the paper redistributes them), Lightning keeps its skewed
  crawled split (we draw a random split);
* channel-capacity scales: Ripple median ≈ $250, Lightning median ≈ 500k
  satoshi (§4.2).

Every generator takes an explicit :class:`random.Random` for repeatability.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable

from repro.errors import TopologyError
from repro.network.channel import NodeId
from repro.network.graph import ChannelGraph
from repro.network.paths import bfs_tree_parents

CapacitySampler = Callable[[random.Random], float]

#: Median directional balance of a Ripple channel in USD (§4.2).
RIPPLE_CAPACITY_MEDIAN_USD = 250.0
#: Median Lightning channel capacity in satoshi (§4.2).
LIGHTNING_CAPACITY_MEDIAN_SAT = 500_000.0

#: Paper's processed Ripple topology size.
RIPPLE_NODES, RIPPLE_EDGES = 1_870, 17_416
#: Paper's Lightning snapshot size (December 2018).
LIGHTNING_NODES, LIGHTNING_CHANNELS = 2_511, 36_016


def lognormal_sampler(median: float, sigma: float) -> CapacitySampler:
    """A log-normal capacity sampler with the given median and shape."""
    if median <= 0:
        raise TopologyError(f"median must be positive, got {median!r}")
    mu = math.log(median)

    def sample(rng: random.Random) -> float:
        return math.exp(rng.gauss(mu, sigma))

    return sample


def uniform_sampler(low: float, high: float) -> CapacitySampler:
    """Uniform capacity in ``[low, high)`` — the testbed setting (§5.2)."""
    if not 0 <= low < high:
        raise TopologyError(f"invalid capacity interval [{low}, {high})")

    def sample(rng: random.Random) -> float:
        return rng.uniform(low, high)

    return sample


# --------------------------------------------------------------------------
# Random-graph structure generators (edge lists over 0..n-1)
# --------------------------------------------------------------------------


def watts_strogatz_edges(
    n: int, k: int, beta: float, rng: random.Random
) -> list[tuple[int, int]]:
    """Watts–Strogatz small-world graph [34] as an undirected edge list.

    Each node connects to its ``k`` nearest ring neighbors (``k`` even);
    each edge is rewired with probability ``beta`` avoiding self-loops and
    duplicates.
    """
    if n <= 0:
        raise TopologyError("n must be positive")
    if k < 2 or k % 2 != 0 or k >= n:
        raise TopologyError(f"k must be even with 2 <= k < n, got {k}")
    if not 0.0 <= beta <= 1.0:
        raise TopologyError(f"beta must be in [0, 1], got {beta}")
    edges: set[tuple[int, int]] = set()
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            edges.add((min(u, v), max(u, v)))
    result = []
    current = set(edges)
    for u, v in sorted(edges):
        if rng.random() < beta:
            # Rewire the far endpoint to a random node.
            choices = [
                w
                for w in range(n)
                if w != u and (min(u, w), max(u, w)) not in current
            ]
            if choices:
                w = rng.choice(choices)
                current.discard((u, v))
                current.add((min(u, w), max(u, w)))
                result.append((u, w))
                continue
        result.append((u, v))
    return result


def barabasi_albert_edges(
    n: int, m: int, rng: random.Random
) -> list[tuple[int, int]]:
    """Preferential-attachment graph: each new node attaches ``m`` edges.

    Produces a connected graph with a heavy-tailed degree distribution,
    matching the skewed connectivity of real PCN crawls.
    """
    if m < 1 or n <= m:
        raise TopologyError(f"need n > m >= 1, got n={n}, m={m}")
    edges: list[tuple[int, int]] = []
    # Repeated-nodes list implements degree-proportional sampling.
    repeated: list[int] = []
    # Seed: a star over the first m+1 nodes keeps things connected.
    for v in range(1, m + 1):
        edges.append((0, v))
        repeated.extend((0, v))
    for u in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for v in targets:
            edges.append((min(u, v), max(u, v)))
            repeated.extend((u, v))
    return edges


def _grow_to_edge_count(
    n: int,
    target_edges: int,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """A BA backbone topped up with degree-biased extra edges.

    Used to hit an exact (n, |E|) pair like the paper's crawled topologies,
    whose average degree is not an integer.
    """
    m = max(1, target_edges // n)
    edges = barabasi_albert_edges(n, m, rng)
    present = set(edges)
    degrees: dict[int, int] = {node: 0 for node in range(n)}
    repeated: list[int] = []
    for u, v in edges:
        degrees[u] += 1
        degrees[v] += 1
        repeated.extend((u, v))
    attempts = 0
    limit = 50 * max(1, target_edges - len(edges))
    while len(edges) < target_edges and attempts < limit:
        attempts += 1
        u = rng.choice(repeated)
        v = rng.choice(repeated)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        edges.append(key)
        repeated.extend((u, v))
    return edges


# --------------------------------------------------------------------------
# ChannelGraph builders
# --------------------------------------------------------------------------


def build_channel_graph(
    edges: list[tuple[int, int]],
    capacity: CapacitySampler,
    rng: random.Random,
    balanced: bool = True,
) -> ChannelGraph:
    """Attach funds to an edge list.

    ``balanced=True`` splits each channel's funds evenly across directions
    (the paper's Ripple preprocessing); otherwise the split fraction is
    drawn uniformly, giving the skewed one-sided balances of a crawl.
    """
    graph = ChannelGraph()
    for u, v in edges:
        total = capacity(rng)
        if balanced:
            graph.add_channel(u, v, total / 2.0, total / 2.0)
        else:
            fraction = rng.random()
            graph.add_channel(u, v, total * fraction, total * (1.0 - fraction))
    return graph


def ripple_like_topology(
    rng: random.Random,
    n_nodes: int = RIPPLE_NODES,
    n_edges: int = RIPPLE_EDGES,
    capacity_median: float = RIPPLE_CAPACITY_MEDIAN_USD,
    capacity_sigma: float = 1.8,
) -> ChannelGraph:
    """A Ripple-like PCN: skewed degrees, evened directional funds (USD)."""
    edges = _grow_to_edge_count(n_nodes, n_edges, rng)
    # Directional median is `capacity_median`; total is twice that.
    sampler = lognormal_sampler(2.0 * capacity_median, capacity_sigma)
    return build_channel_graph(edges, sampler, rng, balanced=True)


def lightning_like_topology(
    rng: random.Random,
    n_nodes: int = LIGHTNING_NODES,
    n_edges: int = LIGHTNING_CHANNELS,
    capacity_median: float = LIGHTNING_CAPACITY_MEDIAN_SAT,
    capacity_sigma: float = 1.5,
) -> ChannelGraph:
    """A Lightning-like PCN: skewed degrees, skewed fund split (satoshi)."""
    edges = _grow_to_edge_count(n_nodes, n_edges, rng)
    sampler = lognormal_sampler(capacity_median, capacity_sigma)
    return build_channel_graph(edges, sampler, rng, balanced=False)


def testbed_topology(
    rng: random.Random,
    n_nodes: int = 50,
    ring_neighbors: int = 6,
    rewire_beta: float = 0.3,
    capacity_low: float = 1_000.0,
    capacity_high: float = 1_500.0,
    onesided_fraction: float = 0.5,
) -> ChannelGraph:
    """The testbed's Watts–Strogatz network (§5.2).

    The paper sets each channel's capacity "randomly from an interval"
    without evening the directional split (unlike its Ripple
    preprocessing).  ``onesided_fraction`` of the channels place all funds
    on one random side — which is what makes single-path routing fail the
    way Fig 12b/13b show — while the rest split evenly.
    """
    if not 0.0 <= onesided_fraction <= 1.0:
        raise TopologyError("onesided_fraction must be in [0, 1]")
    edges = watts_strogatz_edges(n_nodes, ring_neighbors, rewire_beta, rng)
    sampler = uniform_sampler(capacity_low, capacity_high)
    graph = ChannelGraph()
    for u, v in edges:
        total = sampler(rng)
        if rng.random() < onesided_fraction:
            if rng.random() < 0.5:
                graph.add_channel(u, v, total, 0.0)
            else:
                graph.add_channel(u, v, 0.0, total)
        else:
            graph.add_channel(u, v, total / 2.0, total / 2.0)
    return graph


def line_topology(n_nodes: int, balance: float = 100.0) -> ChannelGraph:
    """A path graph — handy for unit tests and examples."""
    graph = ChannelGraph()
    for u in range(n_nodes - 1):
        graph.add_channel(u, u + 1, balance, balance)
    return graph


def grid_topology(rows: int, cols: int, balance: float = 100.0) -> ChannelGraph:
    """A rows x cols grid — multiple disjoint paths for routing tests."""
    graph = ChannelGraph()
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_channel(node, node + 1, balance, balance)
            if r + 1 < rows:
                graph.add_channel(node, node + cols, balance, balance)
    return graph


def largest_component_nodes(graph: ChannelGraph) -> set[NodeId]:
    """Nodes of the largest connected component (undirected sense)."""
    topology = graph.compact()
    remaining = set(topology)
    best: set[NodeId] = set()
    while remaining:
        # A BFS tree's keys are exactly the nodes its sweep reaches.
        component = set(bfs_tree_parents(topology, next(iter(remaining))))
        remaining -= component
        if len(component) > len(best):
            best = component
    return best
