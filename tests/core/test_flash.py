"""Tests for the assembled Flash router."""

import random

import pytest

from repro.core.classifier import StaticThresholdClassifier
from repro.core.flash import FlashRouter
from repro.network.view import NetworkView
from repro.traces.workload import Transaction


def make_router(graph, threshold=100.0, **kwargs):
    view = NetworkView(graph)
    router = FlashRouter(
        view,
        classifier=StaticThresholdClassifier(threshold=threshold),
        rng=random.Random(0),
        **kwargs,
    )
    return router, view


def txn(amount, sender=0, receiver=3, txid=0):
    return Transaction(txid=txid, sender=sender, receiver=receiver, amount=amount)


class TestClassDispatch:
    def test_mouse_goes_through_table(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=100.0)
        outcome = router.route(txn(10.0))
        assert outcome.success
        assert router.mice_count == 1
        assert router.elephant_count == 0
        assert (0, 3) in router.table

    def test_elephant_goes_through_maxflow(self, diamond_graph):
        router, view = make_router(diamond_graph, threshold=50.0)
        outcome = router.route(txn(80.0))
        assert outcome.success
        assert router.elephant_count == 1
        assert view.counters.probe_operations >= 2  # probed multiple paths


class TestElephantRouting:
    def test_multipath_delivery(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=50.0)
        outcome = router.route(txn(90.0))
        assert outcome.success
        assert len(outcome.transfers) >= 2
        assert sum(a for _, a in outcome.transfers) == pytest.approx(90.0)

    def test_fails_beyond_maxflow(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=50.0)
        # Max flow from 0 to 3 is 110 (50+50 plus 10 via the cross edge).
        outcome = router.route(txn(150.0))
        assert not outcome.success
        assert outcome.delivered == 0.0

    def test_failure_leaves_balances_untouched(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=50.0)
        before = diamond_graph.balance(0, 1)
        router.route(txn(150.0))
        assert diamond_graph.balance(0, 1) == before

    def test_uses_fig5a_extra_capacity(self, fig5a_graph):
        """The Figure 5(a) scenario: demand 50 needs the 1-5-4-6 detour."""
        router, _ = make_router(fig5a_graph, threshold=1.0)
        outcome = router.route(txn(50.0, sender=1, receiver=6))
        assert outcome.success

    def test_delivers_sequentially(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=1.0)
        assert router.route(txn(60.0, txid=0)).success
        # Capacity toward 3 is now depleted by 60; another 60 must fail.
        assert not router.route(txn(60.0, txid=1)).success


class TestMiceRouting:
    def test_recurring_receiver_uses_cache(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=1_000.0)
        router.route(txn(5.0, txid=0))
        router.route(txn(5.0, txid=1))
        entry = router.table.lookup(0, 3, router.view.compact_topology())
        assert entry.hits >= 2

    def test_mice_failure_after_m_paths(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=1_000.0, m=2)
        outcome = router.route(txn(500.0))
        assert not outcome.success

    def test_dead_path_replacement(self, grid_graph):
        router, _ = make_router(grid_graph, threshold=1_000.0, m=2)
        topology = router.view.compact_topology()
        original = [
            list(path)
            for path in router.table.lookup(0, 8, topology).paths
        ]
        # Drain channel 0->1 so paths through it probe dead.
        grid_graph.channel(0, 1).transfer(0, 1, 100.0)
        dead_originals = [path for path in original if path[1] == 1]
        assert dead_originals, "expected the top Yen paths to use 0->1"
        router.route(txn(50.0, receiver=8, txid=0))
        entry = router.table.lookup(0, 8, topology)
        # Every probed-dead path was swapped for the next-ranked Yen path.
        for dead in dead_originals:
            assert dead not in entry.paths
        assert len(entry.paths) == 2
        # Eventually the table converges on live paths and payments succeed.
        outcomes = [
            router.route(txn(50.0, receiver=8, txid=i)) for i in range(1, 6)
        ]
        assert any(outcome.success for outcome in outcomes)

    def test_unreachable_receiver_fails(self, diamond_graph):
        diamond_graph.add_node(42)
        router, _ = make_router(diamond_graph, threshold=1_000.0)
        assert not router.route(txn(5.0, receiver=42)).success


class TestFees:
    def test_fee_reported_on_success(self, diamond_graph):
        from repro.network.graph import assign_uniform_fees

        assign_uniform_fees(diamond_graph, base=0.0, rate=0.01)
        # m=2 keeps the cached paths to the two 2-hop routes.
        router, _ = make_router(diamond_graph, threshold=1_000.0, m=2)
        outcome = router.route(txn(10.0))
        assert outcome.fee == pytest.approx(2 * 0.01 * 10.0)

    def test_optimizer_prefers_cheap_path_for_elephants(self, diamond_graph):
        from repro.network.fees import LinearFee

        # Path via 1 cheap, via 2 expensive.
        diamond_graph.channel(0, 1).set_fee_policy(0, 1, LinearFee(rate=0.001))
        diamond_graph.channel(1, 3).set_fee_policy(1, 3, LinearFee(rate=0.001))
        diamond_graph.channel(0, 2).set_fee_policy(0, 2, LinearFee(rate=0.05))
        diamond_graph.channel(2, 3).set_fee_policy(2, 3, LinearFee(rate=0.05))
        router, _ = make_router(diamond_graph, threshold=1.0)
        outcome = router.route(txn(40.0))
        assert outcome.success
        paths = {path for path, _ in outcome.transfers}
        assert paths == {(0, 1, 3)}


class TestStats:
    def test_stats_accumulate(self, diamond_graph):
        router, _ = make_router(diamond_graph, threshold=1_000.0)
        router.route(txn(10.0, txid=0))
        router.route(txn(500.0, txid=1))  # fails
        assert router.stats.routed == 2
        assert router.stats.succeeded == 1
        assert router.stats.volume_delivered == pytest.approx(10.0)
        assert router.stats.success_ratio == pytest.approx(0.5)

    def test_topology_update_refreshes_table(self, grid_graph):
        router, _ = make_router(grid_graph, threshold=1_000.0)
        router.route(txn(5.0, receiver=8))
        grid_graph.remove_channel(0, 1)
        router.on_topology_update()
        entry = router.table.lookup(0, 8, router.view.compact_topology())
        assert all(path[1] == 3 for path in entry.paths)

    def test_invalid_k_rejected(self, diamond_graph):
        view = NetworkView(diamond_graph)
        with pytest.raises(ValueError):
            FlashRouter(view, k=0)
