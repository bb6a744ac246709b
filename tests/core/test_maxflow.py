"""Tests for Algorithm 1 (modified Edmonds–Karp path finding)."""

import pytest

from repro.core.maxflow import find_elephant_paths
from repro.network.view import NetworkView


def run(graph, source, target, demand, k=20):
    view = NetworkView(graph)
    search = find_elephant_paths(
        graph.adjacency(), view, source, target, demand, k
    )
    return search, view


class TestBasics:
    def test_single_path_demand_met(self, line_graph):
        search, _ = run(line_graph, 0, 3, 50.0)
        assert search.satisfied
        assert search.paths[0] == [0, 1, 2, 3]
        assert search.max_flow == pytest.approx(100.0)

    def test_demand_exceeding_capacity_unsatisfied(self, line_graph):
        search, _ = run(line_graph, 0, 3, 150.0)
        assert not search.satisfied
        assert search.max_flow == pytest.approx(100.0)

    def test_multipath_aggregates_capacity(self, diamond_graph):
        search, _ = run(diamond_graph, 0, 3, 90.0)
        assert search.satisfied
        assert search.max_flow >= 90.0
        assert len(search.paths) >= 2

    def test_k_limits_path_count(self, diamond_graph):
        search, _ = run(diamond_graph, 0, 3, 1e9, k=1)
        assert len(search.paths) == 1
        assert not search.satisfied

    def test_no_path(self, line_graph):
        line_graph.add_node(99)
        search, _ = run(line_graph, 0, 99, 1.0)
        assert not search.satisfied
        assert search.paths == []

    @pytest.mark.parametrize("form", ["mapping", "snapshot"])
    def test_self_payment_finds_nothing_and_probes_nothing(
        self, line_graph, form
    ):
        topology = line_graph.adjacency()
        if form == "snapshot":
            topology = line_graph.compact()
        view = NetworkView(line_graph)
        search = find_elephant_paths(topology, view, 1, 1, 5.0, 3)
        assert search.paths == [] and search.flows == []
        assert search.max_flow == 0.0 and not search.satisfied
        assert view.counters.probe_messages == 0
        assert view.counters.probe_operations == 0

    def test_validation(self, line_graph):
        view = NetworkView(line_graph)
        with pytest.raises(ValueError):
            find_elephant_paths(line_graph.adjacency(), view, 0, 3, -1.0, 5)
        with pytest.raises(ValueError):
            find_elephant_paths(line_graph.adjacency(), view, 0, 3, 1.0, 0)


class TestResidualSemantics:
    def test_finds_fig5a_full_flow(self, fig5a_graph):
        """Figure 5(a): max flow 1->6 is 50 (30 through node 2, 20 via 5-4);
        the modified EK must discover both, unlike 2 simple shortest paths."""
        search, _ = run(fig5a_graph, 1, 6, 50.0)
        assert search.satisfied
        assert search.max_flow == pytest.approx(50.0)

    def test_capacity_matrix_records_both_directions(self, line_graph):
        search, _ = run(line_graph, 0, 3, 10.0)
        assert search.capacity[(0, 1)] == pytest.approx(100.0)
        assert search.capacity[(1, 0)] == pytest.approx(100.0)

    def test_early_stop_when_satisfied(self, diamond_graph):
        # Demand 10 fits on the first path; only one probe should happen.
        search, view = run(diamond_graph, 0, 3, 10.0)
        assert len(search.paths) == 1
        assert view.counters.probe_operations == 1

    def test_flows_bounded_by_capacity(self, diamond_graph):
        search, _ = run(diamond_graph, 0, 3, 1e9, k=10)
        for path, flow in zip(search.paths, search.flows):
            for u, v in zip(path, path[1:]):
                assert flow <= search.capacity[(u, v)] + 1e-9


class TestZeroCapacityChannels:
    def test_zero_capacity_path_skipped(self):
        from repro.network.graph import ChannelGraph

        graph = ChannelGraph()
        # Short path with zero forward balance, longer live path.
        graph.add_channel(0, 1, 0.0, 50.0)
        graph.add_channel(1, 3, 50.0, 50.0)
        graph.add_channel(0, 2, 50.0, 50.0)
        graph.add_channel(2, 4, 50.0, 50.0)
        graph.add_channel(4, 3, 50.0, 50.0)
        search, _ = run(graph, 0, 3, 40.0)
        assert search.satisfied
        # The dead 2-hop path was probed but contributed no flow.
        assert search.max_flow == pytest.approx(50.0)

    def test_probing_overhead_bounded_by_k(self, grid_graph):
        search, view = run(grid_graph, 0, 8, 1e9, k=3)
        assert view.counters.probe_operations <= 3


class TestOverheadAccounting:
    def test_messages_proportional_to_hops(self, line_graph):
        _, view = run(line_graph, 0, 3, 10.0)
        assert view.counters.probe_messages == 3  # one 3-hop path
