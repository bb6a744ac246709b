"""Shared fixtures: small canonical topologies and seeded RNGs."""

from __future__ import annotations

import random

import pytest

from repro.network.compact import CompactTopology
from repro.network.graph import ChannelGraph
from repro.network.topology import grid_topology, line_topology


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def vector_sweeps(monkeypatch):
    """A ``force()`` that puts every snapshot on the vectorized sweeps.

    ``CompactTopology`` picks the vectorized full sweeps only from
    ``VECTOR_SWEEP_MIN_NODES`` nodes up, far above test-scale graphs.
    After ``force()`` the threshold is 0 for the rest of the test, so
    every unconstrained ``distances_idx``/``bfs_tree`` sweep runs the
    vectorized kernel whatever the graph size.  A test may compute a
    reference first and force afterwards.
    """

    def force() -> None:
        monkeypatch.setattr(CompactTopology, "VECTOR_SWEEP_MIN_NODES", 0)

    return force


@pytest.fixture(params=("by-size", "vector"))
def sweep_kernel(request, vector_sweeps) -> str:
    """Run a test twice: sweeps picked by size, then forced vectorized."""
    if request.param == "vector":
        vector_sweeps()
    return request.param


@pytest.fixture
def line_graph() -> ChannelGraph:
    """0 - 1 - 2 - 3, each direction funded with 100."""
    return line_topology(4, balance=100.0)


@pytest.fixture
def grid_graph() -> ChannelGraph:
    """3x3 grid, each direction funded with 100."""
    return grid_topology(3, 3, balance=100.0)


@pytest.fixture
def diamond_graph() -> ChannelGraph:
    """Two disjoint 2-hop paths 0->1->3 and 0->2->3 plus a cross edge 1-2.

    A minimal topology where multi-path routing beats single-path.
    """
    graph = ChannelGraph()
    graph.add_channel(0, 1, 50.0, 50.0)
    graph.add_channel(1, 3, 50.0, 50.0)
    graph.add_channel(0, 2, 50.0, 50.0)
    graph.add_channel(2, 3, 50.0, 50.0)
    graph.add_channel(1, 2, 10.0, 10.0)
    return graph


@pytest.fixture
def fig5a_graph() -> ChannelGraph:
    """The paper's Figure 5(a): shortest paths share a 30-capacity
    bottleneck 1-2 while 1-5-4-6 is underutilized."""
    graph = ChannelGraph()
    graph.add_channel(1, 2, 30.0, 30.0)
    graph.add_channel(2, 3, 30.0, 30.0)
    graph.add_channel(2, 6, 30.0, 0.0)
    graph.add_channel(3, 6, 30.0, 30.0)
    graph.add_channel(1, 5, 20.0, 20.0)
    graph.add_channel(5, 4, 20.0, 20.0)
    graph.add_channel(4, 6, 20.0, 20.0)
    return graph
