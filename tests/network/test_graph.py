"""Unit tests for the channel graph substrate."""

import random

import pytest

from repro.errors import ChannelError, InsufficientBalanceError, NoChannelError
from repro.network.channel import Channel
from repro.network.feemarket import assign_market_policies
from repro.network.fees import ChannelPolicy, LinearFee, ZeroFee
from repro.network.graph import ChannelGraph, Transfer, assign_uniform_fees
from repro.network.topology import grid_topology
from repro.network.view import NetworkView
from repro.sim.factories import flash_factory
from repro.traces.workload import Transaction, Workload


class TestTopologyOperations:
    def test_add_channel_creates_nodes(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 10.0)
        assert graph.has_node("a") and graph.has_node("b")
        assert graph.num_channels() == 1

    def test_duplicate_channel_rejected(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 10.0)
        with pytest.raises(ChannelError):
            graph.add_channel("b", "a", 5.0, 5.0)

    def test_remove_channel(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 10.0, 10.0)
        graph.remove_channel("a", "b")
        assert not graph.has_channel("a", "b")
        assert graph.has_node("a")

    def test_remove_missing_channel_rejected(self):
        with pytest.raises(NoChannelError):
            ChannelGraph().remove_channel("a", "b")

    def test_neighbors(self, grid_graph):
        assert sorted(grid_graph.neighbors(4)) == [1, 3, 5, 7]

    def test_degree(self, grid_graph):
        assert grid_graph.degree(0) == 2
        assert grid_graph.degree(4) == 4

    def test_channels_iterates_each_once(self, grid_graph):
        assert len(list(grid_graph.channels())) == grid_graph.num_channels() == 12

    def test_adjacency_symmetric(self, grid_graph):
        adjacency = grid_graph.adjacency()
        for node, nbrs in adjacency.items():
            for nbr in nbrs:
                assert node in adjacency[nbr]


class TestBalancesAndFees:
    def test_balance_directional(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 30.0, 10.0)
        assert graph.balance("a", "b") == 30.0
        assert graph.balance("b", "a") == 10.0

    def test_network_funds(self, line_graph):
        assert line_graph.network_funds() == pytest.approx(3 * 200.0)

    def test_path_fee(self):
        graph = ChannelGraph()
        fee = LinearFee(base=1.0, rate=0.01)
        graph.add_channel("a", "b", 10.0, 10.0, fee_ab=fee, fee_ba=fee)
        graph.add_channel("b", "c", 10.0, 10.0, fee_ab=fee, fee_ba=fee)
        assert graph.path_fee(["a", "b", "c"], 100.0) == pytest.approx(2 * 2.0)

    def test_path_bottleneck(self, line_graph):
        line_graph.channel(1, 2).transfer(1, 2, 60.0)
        assert line_graph.path_bottleneck([0, 1, 2, 3]) == pytest.approx(40.0)

    def test_scale_balances(self, line_graph):
        line_graph.scale_balances(10.0)
        assert line_graph.balance(0, 1) == 1000.0

    def test_scale_balances_rejects_nonpositive(self, line_graph):
        with pytest.raises(ChannelError):
            line_graph.scale_balances(0.0)
        for factor in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ChannelError, match="finite"):
                line_graph.scale_balances(factor)
        assert line_graph.balance(0, 1) == 100.0


class TestExecute:
    def test_single_path(self, line_graph):
        line_graph.execute_single([0, 1, 2, 3], 25.0)
        assert line_graph.balance(0, 1) == 75.0
        assert line_graph.balance(1, 0) == 125.0
        assert line_graph.balance(2, 3) == 75.0

    def test_atomic_failure_leaves_no_trace(self, line_graph):
        line_graph.channel(2, 3).transfer(2, 3, 95.0)  # leaves only 5
        before = {
            (u, v): line_graph.balance(u, v)
            for u, v in [(0, 1), (1, 2), (2, 3)]
        }
        with pytest.raises(InsufficientBalanceError):
            line_graph.execute_single([0, 1, 2, 3], 25.0)
        after = {
            (u, v): line_graph.balance(u, v)
            for u, v in [(0, 1), (1, 2), (2, 3)]
        }
        assert before == after

    def test_multipath(self, diamond_graph):
        diamond_graph.execute(
            [Transfer((0, 1, 3), 40.0), Transfer((0, 2, 3), 40.0)]
        )
        assert diamond_graph.balance(0, 1) == 10.0
        assert diamond_graph.balance(0, 2) == 10.0
        assert diamond_graph.balance(3, 1) == 90.0

    def test_multipath_shared_channel_jointly_checked(self, line_graph):
        # Two transfers of 60 share channel 0-1 with capacity 100.
        with pytest.raises(InsufficientBalanceError):
            line_graph.execute(
                [Transfer((0, 1, 2), 60.0), Transfer((0, 1, 2, 3), 60.0)]
            )

    def test_opposite_directions_offset(self, line_graph):
        # 80 forward and 30 backward on channel 1-2 nets to 50 <= 100.
        line_graph.execute(
            [Transfer((0, 1, 2), 80.0), Transfer((2, 1), 30.0)]
        )
        assert line_graph.balance(1, 2) == 50.0
        assert line_graph.balance(2, 1) == 150.0

    def test_offset_allows_over_capacity_gross(self, line_graph):
        # Gross forward flow 120 exceeds the 100 balance, but the batch
        # nets to 120 - 60 = 60, which fits (program (1)'s constraint).
        line_graph.execute(
            [Transfer((1, 2), 120.0), Transfer((2, 1), 60.0)]
        )
        assert line_graph.balance(1, 2) == 40.0

    def test_missing_channel_rejected(self, line_graph):
        with pytest.raises(NoChannelError):
            line_graph.execute_single([0, 2], 1.0)

    def test_conservation_under_execution(self, diamond_graph):
        funds = diamond_graph.network_funds()
        diamond_graph.execute(
            [Transfer((0, 1, 3), 30.0), Transfer((0, 2, 3), 20.0)]
        )
        assert diamond_graph.network_funds() == pytest.approx(funds)

    def test_hold_reports_a_refusal_by_its_return_value(self, line_graph):
        assert line_graph.hold(0, 1, 60.0) is True
        assert line_graph.hold(0, 1, 60.0) is False
        assert line_graph.held(0, 1) == 60.0
        assert line_graph.balance(0, 1) == 40.0

    def test_hold_on_a_missing_channel_raises(self, line_graph):
        with pytest.raises(NoChannelError):
            line_graph.hold(0, 2, 1.0)


class TestCopyAndInterop:
    def test_copy_is_deep(self, line_graph):
        clone = line_graph.copy()
        clone.execute_single([0, 1], 50.0)
        assert line_graph.balance(0, 1) == 100.0
        assert clone.balance(0, 1) == 50.0

    def test_copy_preserves_fees(self):
        graph = ChannelGraph()
        graph.add_channel("a", "b", 1.0, 1.0, fee_ab=LinearFee(rate=0.05))
        clone = graph.copy()
        assert clone.fee_policy("a", "b").fee(100.0) == pytest.approx(5.0)

    def test_networkx_round_trip(self, diamond_graph):
        nx_graph = diamond_graph.to_networkx()
        back = ChannelGraph.from_networkx(nx_graph)
        assert back.num_nodes() == diamond_graph.num_nodes()
        assert back.num_channels() == diamond_graph.num_channels()
        for channel in diamond_graph.channels():
            a, b = channel.endpoints()
            assert back.balance(a, b) == pytest.approx(channel.balance(a, b))

    def test_from_undirected_networkx(self):
        import networkx as nx

        wheel = nx.wheel_graph(5)
        graph = ChannelGraph.from_networkx(wheel)
        assert graph.num_channels() == wheel.number_of_edges()

    def test_from_edges(self):
        graph = ChannelGraph.from_edges([("a", "b", 1.0, 2.0), ("b", "c", 3.0, 4.0)])
        assert graph.balance("b", "c") == 3.0


_POLICY = ChannelPolicy(base_fee=0.5, fee_rate=0.01)

#: Each Channel mutator, and the same write through the graph.
_WRITES = {
    "transfer": (
        lambda channel: channel.transfer("a", "b", 5.0),
        lambda graph: graph.execute_single(["a", "b"], 5.0),
    ),
    "hold": (
        lambda channel: channel.hold("a", "b", 5.0),
        lambda graph: graph.hold("a", "b", 5.0),
    ),
    "settle_hold": (
        lambda channel: channel.settle_hold("a", "b", 4.0),
        lambda graph: graph.settle_hold("a", "b", 4.0),
    ),
    "release_hold": (
        lambda channel: channel.release_hold("a", "b", 4.0),
        lambda graph: graph.release_hold("a", "b", 4.0),
    ),
    "set_fee_policy": (
        lambda channel: channel.set_fee_policy("a", "b", _POLICY),
        lambda graph: graph.set_channel_policy("a", "b", _POLICY),
    ),
}


def _state(graph: ChannelGraph) -> list:
    return [
        (graph.balance(u, v), graph.held(u, v), graph.fee_policy(u, v))
        for u, v in (("a", "b"), ("b", "a"))
    ]


@pytest.fixture
def count_channels(monkeypatch):
    """Record every constructed channel and every channel twinned."""
    built: list[Channel] = []
    twinned: list[Channel] = []
    post_init = Channel.__post_init__
    twin = Channel._twin

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_twin(self, *args, **kwargs):
        twinned.append(self)
        return twin(self, *args, **kwargs)

    monkeypatch.setattr(Channel, "__post_init__", counting_post_init)
    monkeypatch.setattr(Channel, "_twin", counting_twin)
    return built, twinned


class TestCopyOnWrite:
    """Copies share channels until one of them writes a channel."""

    @pytest.mark.parametrize("taken_by", ["add_channel", "channel"])
    @pytest.mark.parametrize("write", sorted(_WRITES))
    def test_reference_from_before_a_copy_is_read_only(self, taken_by, write):
        graph = ChannelGraph()
        added = graph.add_channel("a", "b", 30.0, 10.0)
        graph.add_channel("b", "c", 10.0, 10.0)
        graph.hold("a", "b", 4.0)
        channel = added if taken_by == "add_channel" else graph.channel("a", "b")
        sibling = graph.copy()
        mine, theirs = _state(graph), _state(sibling)
        through_channel, through_graph = _WRITES[write]
        with pytest.raises(ChannelError, match="shared"):
            through_channel(channel)
        assert _state(graph) == mine
        through_graph(graph)
        assert _state(graph) != mine
        assert _state(sibling) == theirs
        # The graph now writes its own twin; the old reference stays shut.
        assert graph.channel("a", "b") is not channel
        with pytest.raises(ChannelError, match="shared"):
            through_channel(channel)

    def test_copy_of_an_idle_graph_builds_no_channel(
        self, grid_graph, rng, count_channels
    ):
        built, twinned = count_channels
        clone = grid_graph.copy()
        assert built == [] and twinned == []
        # An elephant: Flash probes paths (reads) and splits it over two
        # or more of them (writes), since no one path carries 150.
        payment = Transaction(0, 0, 8, 150.0)
        workload = Workload([payment, Transaction(1, 3, 5, 1.0)])
        router = flash_factory()(NetworkView(clone), workload, rng)
        outcome = router.route(payment)
        assert outcome.success and router.view.counters.probe_messages > 0
        written = {
            frozenset(hop)
            for path, _ in outcome.transfers
            for hop in zip(path, path[1:])
        }
        assert len(twinned) == len(written) >= 2
        assert {frozenset(channel.endpoints()) for channel in twinned} == written
        assert built == []
        # The source kept every channel; the clone swapped in its twins.
        for channel in grid_graph.channels():
            a, b = channel.endpoints()
            assert grid_graph.balance(a, b) == 100.0
            assert grid_graph.balance(b, a) == 100.0

    def test_copy_with_holds_outstanding(self, line_graph):
        line_graph.hold(0, 1, 30.0)
        line_graph.hold(1, 2, 20.0)
        clone = line_graph.copy()
        assert clone.held(0, 1) == 0.0 and clone.held(1, 2) == 0.0
        assert clone.balance(0, 1) == 100.0 and clone.total_held() == 0.0
        line_graph.settle_hold(0, 1, 30.0)
        line_graph.release_hold(1, 2, 20.0)
        assert line_graph.total_held() == 0.0
        assert line_graph.balance(0, 1) == 70.0
        assert line_graph.balance(1, 0) == 130.0
        assert line_graph.balance(1, 2) == 100.0
        assert clone.balance(0, 1) == 100.0 and clone.balance(1, 0) == 100.0
        # The clone can take holds of its own on the same channels.
        clone.hold(0, 1, 90.0)
        assert clone.balance(0, 1) == pytest.approx(10.0)
        assert line_graph.balance(0, 1) == 70.0

    @pytest.mark.parametrize(
        "walk",
        [
            lambda graph, rng: assign_market_policies(
                graph, rng, paper_mix=True
            ),
            lambda graph, rng: graph.assign_paper_fees(rng),
            lambda graph, rng: assign_uniform_fees(graph, 0.1, 0.01),
            lambda graph, rng: graph.scale_balances(2.0),
        ],
        ids=["market", "paper_fees", "uniform_fees", "scale"],
    )
    def test_walkers_write_each_channel_once_after_a_copy(self, walk):
        """A walk that twins as it goes still visits each channel once."""
        copied, fresh = grid_topology(3, 3, 100.0), grid_topology(3, 3, 100.0)
        sibling = copied.copy()
        rngs = [random.Random(7), random.Random(7)]
        walk(copied, rngs[0])
        walk(fresh, rngs[1])
        assert rngs[0].getstate() == rngs[1].getstate()
        assert len(list(copied.channels())) == copied.num_channels()
        for u, row in fresh.adjacency().items():
            for v in row:
                assert copied.fee_policy(u, v) == fresh.fee_policy(u, v)
                assert copied.balance(u, v) == fresh.balance(u, v)
                assert sibling.fee_policy(u, v) == ZeroFee()
                assert sibling.balance(u, v) == 100.0


class TestExecuteMixedNodeTypes:
    """Netting must canonicalize hops even when node-id types mix.

    Regression: the old canonical-direction trick ``(u, v) <= (v, u)``
    raised ``TypeError`` when a graph held both ``int`` and ``str`` nodes.
    """

    @pytest.fixture
    def mixed_graph(self):
        graph = ChannelGraph()
        graph.add_channel(0, "relay", 100.0, 100.0)
        graph.add_channel("relay", 1, 100.0, 100.0)
        return graph

    def test_execute_crosses_type_boundary(self, mixed_graph):
        mixed_graph.execute([Transfer((0, "relay", 1), 30.0)])
        assert mixed_graph.balance(0, "relay") == pytest.approx(70.0)
        assert mixed_graph.balance("relay", 1) == pytest.approx(70.0)

    def test_opposite_flows_net_out(self, mixed_graph):
        mixed_graph.execute(
            [
                Transfer((0, "relay"), 80.0),
                Transfer(("relay", 0), 50.0),
            ]
        )
        assert mixed_graph.balance(0, "relay") == pytest.approx(70.0)
        assert mixed_graph.balance("relay", 0) == pytest.approx(130.0)

    def test_netting_allows_jointly_feasible_mixed_flows(self, mixed_graph):
        # 120 forward exceeds the 100 balance, but 30 backward nets it
        # down to 90 — feasible only if netting canonicalizes correctly.
        mixed_graph.execute(
            [
                Transfer((0, "relay"), 120.0),
                Transfer(("relay", 0), 30.0),
            ]
        )
        assert mixed_graph.balance(0, "relay") == pytest.approx(10.0)

    def test_infeasible_mixed_flow_rolls_back(self, mixed_graph):
        with pytest.raises(InsufficientBalanceError):
            mixed_graph.execute(
                [
                    Transfer((0, "relay", 1), 150.0),
                ]
            )
        assert mixed_graph.balance(0, "relay") == pytest.approx(100.0)
        assert mixed_graph.balance("relay", 1) == pytest.approx(100.0)
