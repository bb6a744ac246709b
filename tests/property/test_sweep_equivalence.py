"""Differential fuzz layer: the vectorized sweeps must be *bit-identical*.

:class:`~repro.network.compact.CompactTopology` runs its unconstrained
full sweeps (``distances_idx``, ``tree_parents_idx``) vectorized on
graphs of at least ``VECTOR_SWEEP_MIN_NODES`` nodes and serially below.
The serial sweeps are the reference every golden was recorded under;
the vectorized ones may take over only because this suite proves, on
seeded random inputs with the threshold forced to 0, that they are
observationally indistinguishable:

* ``distances_idx`` / ``tree_parents_idx`` return **the same dict in the
  same insertion order** (insertion order *is* BFS discovery order, and
  downstream tie-breaks depend on it), on fresh snapshots, on
  delta-derived ones (tombstones + arena rows) and on ``fork()``ed
  sibling snapshots;
* end-to-end ``run_comparison`` metrics are equal across {serial with
  sweeps picked by size, serial vectorized, parallel vectorized} on
  both the sequential and the concurrent engine — including a
  fee-market run (policies + load-responsive repricing controller),
  where the fee metrics themselves must agree.

A dispatch test pins the size rule itself.  Everything is seeded stdlib
:mod:`random`, so any failure replays from its seed.
"""

from __future__ import annotations

import random

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

#: One size below BIDIRECTIONAL_MIN_NODES, one above; both far below
#: VECTOR_SWEEP_MIN_NODES, so the references run the serial sweeps.
GRAPH_SIZES = (60, 300)

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
    """Both sweeps from every source, as ordered item lists.

    ``==`` on dicts ignores order; ``items()`` pins discovery order too.
    """
    return [
        (
            list(snapshot.distances_idx(src).items()),
            list(snapshot.tree_parents_idx(src).items()),
        )
        for src in sources
    ]


class TestKernelBitIdentity:
    """Raw kernel sweeps: same dicts, same insertion order."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_nodes", GRAPH_SIZES)
    def test_distance_and_tree_sweeps(self, seed, n_nodes, vector_sweeps):
        rng = random.Random(10_000 * n_nodes + seed)
        snapshot = _random_graph(rng, n_nodes).compact()
        sources = rng.sample(range(snapshot.num_nodes), 12)
        serial = _sweeps(snapshot, sources)
        vector_sweeps()
        assert _sweeps(snapshot, sources) == serial

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n_nodes", GRAPH_SIZES)
    def test_sweeps_after_churn_deltas(self, seed, n_nodes, vector_sweeps):
        # apply_delta-derived snapshots (tombstones + arena rows) must
        # vectorize identically to the serial walk over live slots.
        rng = random.Random(20_000 * n_nodes + seed)
        graph = _random_graph(rng, n_nodes)
        graph.compact()  # warm so subsequent compacts are deltas
        checked = []
        for _ in range(4):
            _churn(rng, graph, rng.randrange(2, 8))
            snapshot = graph.compact()
            sources = rng.sample(range(snapshot.num_nodes), 6)
            checked.append((snapshot, sources, _sweeps(snapshot, sources)))
        # Some snapshot carries tombstones, so live rows differ from CSR.
        assert any(snap.num_slots > snap.live_slots for snap, *_ in checked)
        vector_sweeps()
        for snapshot, sources, serial in checked:
            assert _sweeps(snapshot, sources) == serial

    @pytest.mark.parametrize("seed", range(3))
    def test_sweeps_on_forked_snapshots(self, seed, vector_sweeps):
        # Sibling copies fork one shared snapshot; each fork (and a
        # fork's own delta) gets its own vector mirrors and scratch.
        rng = random.Random(25_000 + seed)
        source = _random_graph(rng, 300)
        first, second = source.copy(), source.copy()
        forks = [first.compact(), second.compact()]
        _churn(rng, first, 6)
        forks.append(first.compact())
        sources = rng.sample(range(300), 8)
        serial = [_sweeps(snapshot, sources) for snapshot in forks]
        assert serial[0] == serial[1]
        vector_sweeps()
        for snapshot, expected in zip(forks, serial):
            assert _sweeps(snapshot, sources) == expected
            # A fork taken after the mirrors exist shares them.
            assert _sweeps(snapshot.fork(), sources) == expected

    def test_grid_sweeps_identical(self, vector_sweeps):
        snapshot = grid_topology(12, 12, balance=80.0).compact()
        sources = range(0, snapshot.num_nodes, 17)
        serial = _sweeps(snapshot, sources)
        vector_sweeps()
        assert _sweeps(snapshot, sources) == serial


def _wheel(n_nodes: int) -> dict[int, list[int]]:
    """Hub 0 joined to a ring of ``n_nodes - 1`` rim nodes."""
    rim = range(1, n_nodes)
    adjacency = {0: list(rim)}
    for i in rim:
        adjacency[i] = [0, (i - 2) % (n_nodes - 1) + 1, i % (n_nodes - 1) + 1]
    return adjacency


class TestDispatch:
    """The size rule: vectorized from VECTOR_SWEEP_MIN_NODES nodes up."""

    @pytest.fixture
    def entered(self, monkeypatch) -> list[str]:
        """Names of the vectorized kernels entered, in call order."""
        calls: list[str] = []
        for name in ("_distances_idx_np", "_tree_parents_idx_np"):
            kernel = getattr(CompactTopology, name)

            def spy(self, src, _kernel=kernel, _name=name):
                calls.append(_name)
                return _kernel(self, src)

            monkeypatch.setattr(CompactTopology, name, spy)
        return calls

    def _sweep_everything(self, snapshot: CompactTopology) -> None:
        for src in (0, 1, snapshot.num_nodes - 1):
            snapshot.distances_idx(src)
            snapshot.distances_idx(src, slot_ok=lambda slot: True)
            snapshot.tree_parents_idx(src)
            node = snapshot.nodes[src]
            bfs_distances(snapshot, node)
            bfs_distances(snapshot, node, edge_ok=lambda u, v: True)
            bfs_tree_parents(snapshot, node)

    def test_below_threshold_never_vectorizes(self, entered):
        n_nodes = CompactTopology.VECTOR_SWEEP_MIN_NODES - 1
        snapshot = CompactTopology.from_adjacency(_wheel(n_nodes))
        assert snapshot.num_nodes == n_nodes
        self._sweep_everything(snapshot)
        assert entered == []

    def test_at_threshold_always_vectorizes(self, entered):
        n_nodes = CompactTopology.VECTOR_SWEEP_MIN_NODES
        adjacency = _wheel(n_nodes)
        snapshot = CompactTopology.from_adjacency(adjacency)
        self._sweep_everything(snapshot)
        # Every unconstrained sweep, never a slot_ok/edge_ok one.
        assert entered == 3 * [
            "_distances_idx_np",
            "_tree_parents_idx_np",
            "_distances_idx_np",
            "_tree_parents_idx_np",
        ]
        for src in (0, 1, n_nodes - 1):
            assert list(bfs_distances(snapshot, src).items()) == list(
                bfs_distances(adjacency, src).items()
            )
            assert list(bfs_tree_parents(snapshot, src).items()) == list(
                bfs_tree_parents(adjacency, src).items()
            )


class TestEndToEndIdentity:
    """run_comparison: by size == serial vectorized == parallel vectorized."""

    def _compare(
        self, vector_sweeps, scenario, engine=None, engine_params=None
    ):
        kwargs = dict(
            runs=2, base_seed=7, engine=engine, engine_params=engine_params
        )
        reference = run_comparison(scenario, FACTORIES, **kwargs)
        vector_sweeps()
        outcomes = {
            "serial-vector": run_comparison(scenario, FACTORIES, **kwargs),
            "parallel-vector": run_comparison(
                scenario, FACTORIES, workers=2, **kwargs
            ),
        }
        for label, result in outcomes.items():
            assert result.schemes() == reference.schemes(), label
            for scheme in reference.schemes():
                assert result[scheme] == reference[scheme], (
                    f"{label}/{scheme} diverged from the serial sweeps"
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

    def test_sequential_engine_grid(self, vector_sweeps):
        # Seed-independent topology: every run has the same graph.
        self._compare(vector_sweeps, self._grid_scenario)

    def test_sequential_engine_ba(self, vector_sweeps):
        # Seed-dependent topology: every run has its own graph.
        self._compare(vector_sweeps, self._ba_scenario)

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

    def test_sequential_engine_fee_market(self, vector_sweeps):
        self._compare(vector_sweeps, self._fee_market_scenario)

    def test_concurrent_engine_grid(self, vector_sweeps):
        self._compare(
            vector_sweeps,
            self._grid_scenario,
            engine="concurrent",
            engine_params={"load": 40.0},
        )

    def test_concurrent_engine_fee_market(self, vector_sweeps):
        self._compare(
            vector_sweeps,
            self._fee_market_scenario,
            engine="concurrent",
            engine_params={"load": 40.0},
        )
