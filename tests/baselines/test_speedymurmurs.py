"""Tests for the SpeedyMurmurs baseline (embedding-based routing)."""

import random

import pytest

from repro.baselines import speedymurmurs
from repro.baselines.speedymurmurs import (
    SpeedyMurmursRouter,
    tree_coordinates,
    tree_distance,
)
from repro.network.dynamics import ChannelEvent, ChannelEventType, GossipSchedule
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.graph import ChannelGraph
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    grid_topology,
    uniform_sampler,
)
from repro.network.view import NetworkView
from repro.traces.workload import Transaction


def txn(amount, sender=0, receiver=8, txid=0):
    return Transaction(txid=txid, sender=sender, receiver=receiver, amount=amount)


class TestEmbedding:
    def test_coordinates_cover_component(self, grid_graph):
        coords = tree_coordinates(grid_graph.adjacency(), 0)
        assert set(coords) == set(grid_graph.nodes)

    def test_root_coordinate(self, grid_graph):
        coords = tree_coordinates(grid_graph.adjacency(), 4)
        assert coords[4] == (4,)

    def test_coordinate_prefix_is_parent_chain(self, grid_graph):
        coords = tree_coordinates(grid_graph.adjacency(), 0)
        for node, coord in coords.items():
            assert coord[-1] == node
            assert coord[0] == 0

    def test_tree_distance_symmetric(self, grid_graph):
        coords = tree_coordinates(grid_graph.adjacency(), 0)
        assert tree_distance(coords[5], coords[7]) == tree_distance(
            coords[7], coords[5]
        )

    def test_tree_distance_identity(self, grid_graph):
        coords = tree_coordinates(grid_graph.adjacency(), 0)
        assert tree_distance(coords[5], coords[5]) == 0

    def test_tree_distance_counts_hops(self):
        a = ("r", "x", "y")
        b = ("r", "x", "z", "w")
        assert tree_distance(a, b) == 1 + 2


class TestRouter:
    def test_delivers_small_payment(self, grid_graph):
        router = SpeedyMurmursRouter(
            NetworkView(grid_graph), rng=random.Random(0)
        )
        outcome = router.route(txn(10.0))
        assert outcome.success
        assert outcome.delivered == 10.0

    def test_splits_across_trees(self, grid_graph):
        router = SpeedyMurmursRouter(
            NetworkView(grid_graph), num_landmarks=3, rng=random.Random(0)
        )
        outcome = router.route(txn(9.0))
        assert len(outcome.transfers) == 3
        assert sum(a for _, a in outcome.transfers) == pytest.approx(9.0)

    def test_transfers_are_valid_walks(self, grid_graph):
        adjacency = grid_graph.adjacency()
        router = SpeedyMurmursRouter(
            NetworkView(grid_graph), rng=random.Random(0)
        )
        outcome = router.route(txn(10.0))
        for path, _ in outcome.transfers:
            assert path[0] == 0 and path[-1] == 8
            for u, v in zip(path, path[1:]):
                assert v in adjacency[u]

    def test_static_no_probing(self, grid_graph):
        view = NetworkView(grid_graph)
        router = SpeedyMurmursRouter(view, rng=random.Random(0))
        router.route(txn(10.0))
        assert view.counters.probe_messages == 0

    def test_failure_atomic(self, grid_graph):
        view = NetworkView(grid_graph)
        router = SpeedyMurmursRouter(view, rng=random.Random(0))
        funds = grid_graph.network_funds()
        router.route(txn(10_000.0))
        assert grid_graph.network_funds() == pytest.approx(funds)

    def test_big_payment_fails(self, grid_graph):
        router = SpeedyMurmursRouter(
            NetworkView(grid_graph), rng=random.Random(0)
        )
        assert not router.route(txn(10_000.0)).success

    def test_validation(self, grid_graph):
        with pytest.raises(ValueError):
            SpeedyMurmursRouter(NetworkView(grid_graph), num_landmarks=0)


def _root(embedding):
    """The landmark an embedding is rooted at (its self-parented node)."""
    (root,) = [node for node, parent in embedding.parents.items() if node == parent]
    return root


def _mixed_id_graph() -> ChannelGraph:
    """Int and str node ids side by side, with degree ties across types."""
    graph = ChannelGraph()
    for a, b in (
        (1, "1"), (1, 2), (1, "b"), ("1", "a"), ("1", 2),
        (2, "a"), ("a", 10), ("b", "10"), (10, "10"), ("10", 3),
    ):
        graph.add_channel(a, b, 50.0, 50.0)
    return graph


class TestLazyEmbedding:
    """Lazily read coordinates and ranked landmarks equal the eager forms."""

    def _router(self, graph, landmarks=3):
        return SpeedyMurmursRouter(
            NetworkView(graph), num_landmarks=landmarks, rng=random.Random(0)
        )

    def _expected_landmarks(self, graph, count):
        topology = graph.compact()
        ranked = sorted(
            topology, key=lambda node: (-len(topology[node]), repr(node))
        )
        return ranked[:count]

    @pytest.mark.parametrize("seed", range(3))
    def test_lazy_coordinates_equal_eager(self, seed):
        rng = random.Random(seed)
        graph = build_channel_graph(
            barabasi_albert_edges(120, 2, rng), uniform_sampler(50.0, 150.0), rng
        )
        graph.add_channel("island-a", "island-b", 10.0, 10.0)
        router = self._router(graph)
        topology = graph.compact()
        probes = graph.nodes + ["absent"]
        for embedding in router._embeddings:
            eager = tree_coordinates(topology, _root(embedding))
            rng.shuffle(probes)
            for node in probes:
                assert (node in embedding.parents) == (node in eager)
                if node in eager:
                    assert embedding[node] == eager[node]
                else:
                    with pytest.raises(KeyError):
                        embedding[node]
            assert dict(embedding) == eager

    @pytest.mark.parametrize("count", [1, 3, 5, 9, 16, 20])
    def test_landmarks_match_full_sort_on_grid_ties(self, count):
        # 4x4 grid: four inner nodes of degree 4, eight of degree 3 and
        # four corners of degree 2, so repr breaks most ties.
        graph = grid_topology(4, 4, balance=100.0)
        router = self._router(graph, count)
        assert [_root(e) for e in router._embeddings] == (
            self._expected_landmarks(graph, count)
        )

    @pytest.mark.parametrize("count", [1, 2, 4, 6, 8, 12])
    def test_landmarks_match_full_sort_on_mixed_ids(self, count):
        graph = _mixed_id_graph()
        router = self._router(graph, count)
        assert [_root(e) for e in router._embeddings] == (
            self._expected_landmarks(graph, count)
        )
        # Still equal after a gossiped change re-ranks the landmarks.
        graph.remove_channel(1, "1")
        graph.add_channel(3, "a", 50.0, 50.0)
        router.on_topology_update(events=[])
        assert [_root(e) for e in router._embeddings] == (
            self._expected_landmarks(graph, count)
        )


class TestNextHopMemo:
    """The memo lives as long as the snapshot the trees were built on."""

    PAIRS = [(0, 8), (2, 6), (6, 8), (0, 8), (1, 7)]

    def _routed(self, graph):
        router = SpeedyMurmursRouter(NetworkView(graph), rng=random.Random(0))
        for txid, (sender, receiver) in enumerate(self.PAIRS):
            router.route(txn(5.0, sender, receiver, txid))
        return router

    @staticmethod
    def _memo(router):
        return [
            {target: dict(hops) for target, hops in tree.items()}
            for tree in router._next_hops
        ]

    def test_fee_only_tick_keeps_embeddings_and_memo(self, grid_graph):
        assign_market_policies(grid_graph, random.Random(0), initial_rate=0.01)
        grid_graph.fee_controller = FeeMarketController(decay=0.5)
        router = self._routed(grid_graph)
        embeddings, memo = router._embeddings, self._memo(router)
        entries = router._next_hop_entries
        assert entries > 0
        schedule = GossipSchedule(grid_graph, events=[], gossip_period=100.0)
        schedule.register(router)
        before = grid_graph.policy_version
        schedule.advance_to(100.0)
        assert grid_graph.policy_version > before  # the tick repriced
        assert router._embeddings is embeddings
        assert self._memo(router) == memo
        assert router._next_hop_entries == entries

    def test_structural_tick_rebuilds_embeddings_and_memo(self, grid_graph):
        router = self._routed(grid_graph)
        embeddings = router._embeddings
        assert router._next_hop_entries > 0
        schedule = GossipSchedule(
            grid_graph,
            events=[
                ChannelEvent(10.0, ChannelEventType.CLOSE, 0, 1),
                ChannelEvent(10.0, ChannelEventType.OPEN, 0, 4, 100.0, 100.0),
            ],
            gossip_period=100.0,
        )
        schedule.register(router)
        schedule.advance_to(100.0)
        assert router._topology is grid_graph.compact()
        assert len(router._embeddings) == len(embeddings)
        assert all(
            new is not old for new, old in zip(router._embeddings, embeddings)
        )
        assert self._memo(router) == [{}, {}, {}]
        assert router._next_hop_entries == 0

    def test_memo_is_dropped_at_its_limit(self, grid_graph, monkeypatch):
        monkeypatch.setattr(speedymurmurs, "_NEXT_HOP_LIMIT", 1)
        router = SpeedyMurmursRouter(NetworkView(grid_graph), rng=random.Random(0))
        for txid, (sender, receiver) in enumerate(self.PAIRS * 3):
            router.route(txn(1.0, sender, receiver, txid))
            held = sum(
                len(hops) for tree in router._next_hops for hops in tree.values()
            )
            assert held == router._next_hop_entries
            # Only this payment's entries: three walks of at most 4 steps.
            assert 0 < held <= 3 * 4
