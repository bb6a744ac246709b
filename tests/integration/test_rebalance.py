"""Tests for the Revive-style rebalancing extension."""

import random

import pytest

from repro.extensions import rebalance
from repro.extensions.rebalance import (
    Rebalancer,
    channel_skew,
    find_rebalancing_cycle,
)
from repro.network.graph import ChannelGraph
from repro.network.topology import grid_topology, ripple_like_topology
from repro.sim.engine import run_simulation
from repro.sim.factories import shortest_path_factory
from repro.traces.generators import generate_ripple_workload


def skewed_triangle() -> ChannelGraph:
    """A triangle where channel a-b is fully one-sided."""
    graph = ChannelGraph()
    graph.add_channel("a", "b", 100.0, 0.0)
    graph.add_channel("b", "c", 50.0, 50.0)
    graph.add_channel("c", "a", 50.0, 50.0)
    return graph


class TestSkew:
    def test_even_channel_zero_skew(self):
        graph = grid_topology(2, 2)
        assert channel_skew(graph.channel(0, 1)) == 0.0

    def test_one_sided_channel_full_skew(self):
        graph = skewed_triangle()
        assert channel_skew(graph.channel("a", "b")) == 1.0


class TestFindCycle:
    def test_cycle_found_in_triangle(self):
        graph = skewed_triangle()
        cycle = find_rebalancing_cycle(graph, "a", "b", 25.0)
        assert cycle == ["a", "b", "c", "a"]

    def test_no_cycle_when_detour_lacks_balance(self):
        graph = skewed_triangle()
        cycle = find_rebalancing_cycle(graph, "a", "b", 60.0)
        assert cycle is None

    def test_no_cycle_when_rich_side_lacks_amount(self):
        graph = skewed_triangle()
        assert find_rebalancing_cycle(graph, "b", "a", 10.0) is None


class TestRebalancer:
    def test_reduces_skew_and_conserves_funds(self):
        graph = skewed_triangle()
        funds = graph.network_funds()
        before = channel_skew(graph.channel("a", "b"))
        report = Rebalancer(graph, random.Random(0)).rebalance_once()
        assert report.cycles_executed == 1
        assert channel_skew(graph.channel("a", "b")) < before
        assert graph.network_funds() == pytest.approx(funds)

    def test_channel_totals_invariant(self):
        graph = skewed_triangle()
        totals = {
            channel.endpoints(): channel.total_capacity()
            for channel in graph.channels()
        }
        Rebalancer(graph, random.Random(0)).run(passes=3)
        for channel in graph.channels():
            assert channel.total_capacity() == pytest.approx(
                totals[channel.endpoints()]
            )

    def test_noop_on_balanced_network(self):
        graph = grid_topology(3, 3)
        report = Rebalancer(graph, random.Random(0)).rebalance_once()
        assert report.cycles_executed == 0

    def test_infeasible_cycle_is_skipped(self, monkeypatch):
        graph = skewed_triangle()
        # A cycle whose b -> c hop cannot carry the amount, as when the
        # funds moved after the cycle was found.
        monkeypatch.setattr(
            rebalance, "find_rebalancing_cycle",
            lambda graph, rich, poor, amount: ["a", "b", "c", "a"],
        )
        graph.channel("b", "c").transfer("b", "c", 50.0)
        balances = {
            (u, v): graph.balance(u, v)
            for u, row in graph.adjacency().items()
            for v in row
        }
        report = Rebalancer(graph, random.Random(0)).rebalance_once()
        assert report.channels_considered >= 1
        assert report.cycles_executed == 0
        for (u, v), balance in balances.items():
            assert graph.balance(u, v) == balance

    def test_other_errors_propagate(self, monkeypatch):
        graph = skewed_triangle()

        def broken(transfers):
            raise RuntimeError("not a channel error")

        monkeypatch.setattr(graph, "execute", broken)
        with pytest.raises(RuntimeError, match="not a channel error"):
            Rebalancer(graph, random.Random(0)).rebalance_once()

    def test_validation(self):
        graph = grid_topology(2, 2)
        with pytest.raises(ValueError):
            Rebalancer(graph, skew_threshold=2.0)
        with pytest.raises(ValueError):
            Rebalancer(graph, target_fraction=0.0)


class TestRebalancingHelpsRouting:
    def test_success_ratio_improves_after_rebalance(self):
        """The paper's §4.2 observation: one-directional saturation kills
        success ratio; rebalancing (Revive [22]) restores it."""
        rng = random.Random(9)
        graph = ripple_like_topology(rng, n_nodes=80, n_edges=400)
        # Saturate: run a workload that drains channels one way.
        drain = generate_ripple_workload(rng, graph.nodes, 300)
        run_simulation(
            graph, shortest_path_factory(), drain, copy_graph=False
        )
        probe_load = generate_ripple_workload(rng, graph.nodes, 150)
        before = run_simulation(
            graph, shortest_path_factory(), probe_load
        ).success_ratio
        rebalanced = graph.copy()
        Rebalancer(rebalanced, random.Random(1), skew_threshold=0.5).run(
            passes=5, max_cycles=200
        )
        after = run_simulation(
            rebalanced, shortest_path_factory(), probe_load
        ).success_ratio
        assert after >= before
