"""Differential fuzz layer: the C full sweeps must be *bit-identical*.

:class:`~repro.network.compact.CompactTopology` runs its unconstrained
full sweeps (``distances_idx``, ``bfs_tree``) through scipy's C
``breadth_first_order`` on every graph.  The serial loops are the
reference every golden was recorded under; their dict-walking twins are
kept in ``tests/bfs_reference.py``, and this suite proves, on seeded
random inputs from 60 to 10,000 nodes, that the kernel is
observationally indistinguishable from them:

* ``distances_idx`` returns **the same dict in the same insertion
  order** (insertion order *is* BFS discovery order, and downstream
  tie-breaks depend on it), ``bfs_tree`` the same parent and
  discovery-order arrays, and the ``bfs_tree_parents`` view over them
  the same items in the same order, on fresh snapshots, on
  delta-derived ones (tombstones + arena rows) and on ``fork()``ed
  sibling snapshots;
* rows stored in descending index order keep their order: a CSR matrix
  whose rows scipy sorted would break ties differently, and the
  descending-rows case fails then;
* end-to-end ``run_comparison`` metrics are equal across {serial on the
  reference loops, serial, parallel} on both the sequential and the
  concurrent engine — including a fee-market run (policies +
  load-responsive repricing controller), where the fee metrics
  themselves must agree.

Everything is seeded stdlib :mod:`random`, so any failure replays from
its seed.
"""

from __future__ import annotations

import random

import bfs_reference as reference
import pytest

from repro.network.compact import CompactTopology
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.graph import ChannelGraph
from repro.network.paths import bfs_distances, bfs_tree_parents
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    grid_topology,
    uniform_sampler,
)
from repro.sim.factories import flash_factory, shortest_path_factory
from repro.sim.runner import run_comparison
from repro.traces.generators import generate_ripple_workload

#: Below and above BIDIRECTIONAL_MIN_NODES, up to a scale-churn-sized
#: graph.
GRAPH_SIZES = (60, 300, 2_000, 10_000)

FACTORIES = {
    "Flash": flash_factory(k=5, m=2),
    "Shortest Path": shortest_path_factory(),
}


def _random_graph(rng: random.Random, n_nodes: int) -> ChannelGraph:
    edges = barabasi_albert_edges(n_nodes, 2, rng)
    return build_channel_graph(edges, uniform_sampler(50.0, 150.0), rng)


def _churn(rng: random.Random, graph: ChannelGraph, ops: int) -> None:
    """Random opens/closes so delta snapshots (tombstones+arena) are hit."""
    for _ in range(ops):
        if rng.random() < 0.5:
            a, b = rng.sample(graph.nodes, 2)
            if not graph.has_channel(a, b):
                graph.add_channel(a, b, rng.uniform(10, 50), rng.uniform(10, 50))
        else:
            channel = rng.choice(list(graph.channels()))
            graph.remove_channel(channel.a, channel.b)


def _sweeps(snapshot: CompactTopology, sources) -> list:
    """Both kernel sweeps from every source, as ordered lists.

    ``==`` on mappings ignores order; ``items()`` pins discovery order
    too.  The tree kernel's arrays and the view over them are both read.
    """
    return [
        (
            list(snapshot.distances_idx(src).items()),
            [array.tolist() for array in snapshot.bfs_tree(src)],
            list(bfs_tree_parents(snapshot, snapshot.nodes[src]).items()),
        )
        for src in sources
    ]


def _expected(snapshot: CompactTopology, sources, adjacency) -> list:
    """What :func:`_sweeps` must give: the dict loops on ``adjacency``."""
    return [
        (
            list(reference.distances_idx(snapshot, src, adjacency).items()),
            [
                array.tolist()
                for array in reference.bfs_tree(snapshot, src, adjacency)
            ],
            list(
                reference.bfs_tree_parents(
                    adjacency, snapshot.nodes[src]
                ).items()
            ),
        )
        for src in sources
    ]


class TestKernelBitIdentity:
    """Raw kernel sweeps: same dicts and arrays, same order."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_nodes", GRAPH_SIZES)
    def test_distance_and_tree_sweeps(self, seed, n_nodes):
        rng = random.Random(10_000 * n_nodes + seed)
        graph = _random_graph(rng, n_nodes)
        snapshot = graph.compact()
        sources = rng.sample(range(snapshot.num_nodes), 12)
        assert _sweeps(snapshot, sources) == _expected(
            snapshot, sources, graph.adjacency()
        )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_nodes", GRAPH_SIZES)
    def test_sweeps_after_churn_deltas(self, seed, n_nodes):
        # apply_delta-derived snapshots (tombstones + arena rows) must
        # sweep exactly as the dict loop over the mutated graph does.
        rng = random.Random(20_000 * n_nodes + seed)
        graph = _random_graph(rng, n_nodes)
        graph.compact()  # warm so subsequent compacts are deltas
        checked = []
        for _ in range(4):
            _churn(rng, graph, rng.randrange(2, 8))
            snapshot = graph.compact()
            sources = rng.sample(range(snapshot.num_nodes), 6)
            assert _sweeps(snapshot, sources) == _expected(
                snapshot, sources, graph.adjacency()
            )
            checked.append(snapshot)
        # Some snapshot carries tombstones, so live rows differ from CSR.
        assert any(snap.num_slots > snap.live_slots for snap in checked)

    @pytest.mark.parametrize("seed", range(3))
    def test_sweeps_on_forked_snapshots(self, seed):
        # Sibling copies fork one shared snapshot; each fork (and a
        # fork's own delta) gets its own CSR matrix and scratch.
        rng = random.Random(25_000 + seed)
        source = _random_graph(rng, 300)
        first, second = source.copy(), source.copy()
        forks = [first.compact(), second.compact()]
        adjacencies = [first.adjacency(), second.adjacency()]
        _churn(rng, first, 6)
        forks.append(first.compact())
        adjacencies.append(first.adjacency())
        sources = rng.sample(range(300), 8)
        for snapshot, adjacency in zip(forks, adjacencies):
            expected = _expected(snapshot, sources, adjacency)
            assert _sweeps(snapshot, sources) == expected
            # A fork taken after the matrix exists shares it.
            assert _sweeps(snapshot.fork(), sources) == expected

    def test_grid_sweeps_identical(self):
        graph = grid_topology(12, 12, balance=80.0)
        snapshot = graph.compact()
        sources = range(0, snapshot.num_nodes, 17)
        assert _sweeps(snapshot, sources) == _expected(
            snapshot, sources, graph.adjacency()
        )

    def test_wheel_sweeps_match_the_dict_loop(self):
        adjacency = _wheel(2_000)
        snapshot = CompactTopology.from_adjacency(adjacency)
        for src in (0, 1, 1_999):
            assert list(bfs_distances(snapshot, src).items()) == list(
                reference.bfs_distances(adjacency, src).items()
            )
            # The slot_ok sweep is the serial loop; it agrees too.
            assert list(
                bfs_distances(snapshot, src, edge_ok=lambda u, v: True).items()
            ) == list(reference.bfs_distances(adjacency, src).items())
            assert list(bfs_tree_parents(snapshot, src).items()) == list(
                reference.bfs_tree_parents(adjacency, src).items()
            )

    @pytest.mark.parametrize("n_nodes", (60, 2_000))
    def test_descending_rows_keep_their_order(self, n_nodes):
        # Every row stored in descending index order, then a fork that
        # took an open (appended at the end of both rows).  The C sweep
        # walks the rows as stored; on sorted rows its ties would break
        # differently, which the last assertion shows.
        rng = random.Random(30_000 + n_nodes)
        adjacency: dict = {}
        for u, v in barabasi_albert_edges(n_nodes, 2, rng):
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        adjacency = {
            u: sorted(adjacency[u], reverse=True) for u in range(n_nodes)
        }
        snapshot = CompactTopology.from_adjacency(adjacency)
        a, b = 0, next(
            v for v in range(n_nodes - 1, 0, -1) if v not in adjacency[0]
        )
        forked = snapshot.fork().apply_delta([("open", a, b)])
        opened = {u: list(row) for u, row in adjacency.items()}
        opened[a].append(b)
        opened[b].append(a)
        sources = [0, 1, n_nodes // 2, n_nodes - 1]
        for snap, walked in ((snapshot, adjacency), (forked, opened)):
            assert _sweeps(snap, sources) == _expected(snap, sources, walked)
        ascending = CompactTopology.from_adjacency(
            {u: sorted(row) for u, row in adjacency.items()}
        )
        assert _sweeps(ascending, sources) != _sweeps(snapshot, sources)


def _wheel(n_nodes: int) -> dict[int, list[int]]:
    """Hub 0 joined to a ring of ``n_nodes - 1`` rim nodes."""
    rim = range(1, n_nodes)
    adjacency = {0: list(rim)}
    for i in rim:
        adjacency[i] = [0, (i - 2) % (n_nodes - 1) + 1, i % (n_nodes - 1) + 1]
    return adjacency


class TestEndToEndIdentity:
    """run_comparison: reference loops == serial == parallel."""

    def _compare(self, monkeypatch, scenario, engine=None, engine_params=None):
        kwargs = dict(
            runs=2, base_seed=7, engine=engine, engine_params=engine_params
        )
        with monkeypatch.context() as patch:
            reference.use_reference_sweeps(patch)
            expected = run_comparison(scenario, FACTORIES, **kwargs)
        outcomes = {
            "serial": run_comparison(scenario, FACTORIES, **kwargs),
            "parallel": run_comparison(
                scenario, FACTORIES, workers=2, **kwargs
            ),
        }
        for label, result in outcomes.items():
            assert result.schemes() == expected.schemes(), label
            for scheme in expected.schemes():
                assert result[scheme] == expected[scheme], (
                    f"{label}/{scheme} diverged from the reference sweeps"
                )

    @staticmethod
    def _grid_scenario(rng: random.Random):
        graph = grid_topology(8, 8, balance=60.0)
        workload = generate_ripple_workload(rng, graph.nodes, 50)
        return graph, workload

    @staticmethod
    def _ba_scenario(rng: random.Random):
        graph = _random_graph(rng, 80)
        graph.scale_balances(5.0)
        workload = generate_ripple_workload(rng, graph.nodes, 50)
        return graph, workload

    def test_sequential_engine_grid(self, monkeypatch):
        # Seed-independent topology: every run has the same graph.
        self._compare(monkeypatch, self._grid_scenario)

    def test_sequential_engine_ba(self, monkeypatch):
        # Seed-dependent topology: every run has its own graph.
        self._compare(monkeypatch, self._ba_scenario)

    @staticmethod
    def _fee_market_scenario(rng: random.Random):
        # Priced directions + a repricing controller: the fee recursion,
        # feasibility pruning, fee-aware escrow, and the gossip-tick
        # repricing all sit on the compared path, and the fee metrics
        # (fee_paid_total/fee_p50/hub_revenue) join the equality check
        # through AveragedMetrics.
        graph = _random_graph(rng, 80)
        graph.scale_balances(5.0)
        assign_market_policies(graph, rng, initial_rate=0.01, paper_mix=True)
        graph.fee_controller = FeeMarketController(sensitivity=6.0)
        workload = generate_ripple_workload(rng, graph.nodes, 50)
        return graph, workload, []

    def test_sequential_engine_fee_market(self, monkeypatch):
        self._compare(monkeypatch, self._fee_market_scenario)

    def test_concurrent_engine_grid(self, monkeypatch):
        self._compare(
            monkeypatch,
            self._grid_scenario,
            engine="concurrent",
            engine_params={"load": 40.0},
        )

    def test_concurrent_engine_fee_market(self, monkeypatch):
        self._compare(
            monkeypatch,
            self._fee_market_scenario,
            engine="concurrent",
            engine_params={"load": 40.0},
        )
