"""Shared fixtures: small canonical topologies and seeded RNGs."""

from __future__ import annotations

import random

import pytest
from bfs_reference import use_reference_sweeps

from repro.network.graph import ChannelGraph
from repro.network.topology import grid_topology, line_topology


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture(params=("kernel", "reference"))
def sweeps(request, monkeypatch) -> str:
    """Run a test twice: on the C sweep kernel, then on the dict loops.

    The ``reference`` run puts the loops of ``tests/bfs_reference.py`` in
    place of every unconstrained full sweep (``use_reference_sweeps``).
    The kernel reads a snapshot's CSR matrix and the loops its mapping
    rows, so a check that holds on both holds on either representation.
    """
    if request.param == "reference":
        use_reference_sweeps(monkeypatch)
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
