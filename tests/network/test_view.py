"""Unit tests for the probing view and payment sessions."""

import random

import pytest

from repro.errors import NoChannelError, ProtocolError
from repro.network.channel import Channel
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.fees import ChannelPolicy, LinearFee, ZeroFee
from repro.network.graph import ChannelGraph
from repro.network.view import MessageCounters, NetworkView


class TestProbing:
    def test_probe_returns_balances(self, line_graph):
        view = NetworkView(line_graph)
        probe = view.probe_path([0, 1, 2])
        assert probe.balances == (100.0, 100.0)
        assert probe.reverse_balances == (100.0, 100.0)
        assert probe.bottleneck == 100.0

    def test_probe_counts_messages_per_hop(self, line_graph):
        view = NetworkView(line_graph)
        view.probe_path([0, 1, 2, 3])
        assert view.counters.probe_messages == 3
        assert view.counters.probe_operations == 1

    def test_topology_is_free(self, line_graph):
        view = NetworkView(line_graph)
        topology = view.compact_topology()
        assert view.counters.probe_messages == 0
        assert sorted(topology[1]) == [0, 2]

    def test_path_fee_free(self, line_graph):
        view = NetworkView(line_graph)
        assert view.path_fee([0, 1, 2], 10.0) == 0.0
        assert view.counters.probe_messages == 0


def _crossed_graph() -> ChannelGraph:
    """0 - 1 - 2 - 3 with the middle channel stored as 2 -> 1.

    Every direction has its own balance and fee, so a reading taken from
    the wrong side of a channel shows.
    """
    graph = ChannelGraph()
    graph.add_channel(0, 1, 10.0, 20.0, LinearFee(1.0, 0.0), LinearFee(2.0, 0.0))
    graph.add_channel(2, 1, 30.0, 40.0, LinearFee(3.0, 0.0), LinearFee(4.0, 0.0))
    graph.add_channel(2, 3, 50.0, 60.0, LinearFee(5.0, 0.0), LinearFee(6.0, 0.0))
    return graph


def _per_hop(graph: ChannelGraph, path):
    """The readings, one graph read per hop direction."""
    hops = list(zip(path, path[1:]))
    return (
        tuple(graph.balance(u, v) for u, v in hops),
        tuple(graph.balance(v, u) for u, v in hops),
        tuple(graph.fee_policy(u, v) for u, v in hops),
    )


def _readings(probe):
    return probe.balances, probe.reverse_balances, probe.fees


class TestProbeRead:
    """A probe reads each hop's channel once, as per-hop reads would."""

    @pytest.mark.parametrize("path", [[0, 1, 2, 3], [3, 2, 1, 0], [1, 2]])
    def test_channels_in_both_stored_orientations(self, path):
        probe = NetworkView(_crossed_graph()).probe_path(path)
        assert _readings(probe) == _per_hop(_crossed_graph(), path)
        if path == [0, 1, 2, 3]:
            assert probe.balances == (10.0, 40.0, 50.0)
            assert probe.reverse_balances == (20.0, 30.0, 60.0)
            assert probe.fees == (
                LinearFee(1.0, 0.0), LinearFee(4.0, 0.0), LinearFee(5.0, 0.0)
            )

    def test_hold_outstanding(self):
        graph = _crossed_graph()
        graph.hold(1, 2, 15.0)
        view = NetworkView(graph)
        assert view.probe_path([0, 1, 2, 3]).balances == (10.0, 25.0, 50.0)
        back = view.probe_path([3, 2, 1, 0])
        assert back.reverse_balances == (50.0, 25.0, 10.0)
        assert _readings(back) == _per_hop(graph, [3, 2, 1, 0])

    def test_closed_hop_reads_dead(self):
        graph = _crossed_graph()
        graph.remove_channel(1, 2)
        view = NetworkView(graph)
        probe = view.probe_path([0, 1, 2, 3])
        assert probe.balances == (10.0, 0.0, 50.0)
        assert probe.reverse_balances == (20.0, 0.0, 60.0)
        assert probe.fees[1] == ZeroFee()
        assert probe.bottleneck == 0.0
        # The probe still walks, and pays for, every hop.
        assert view.counters.probe_messages == 3
        assert view.counters.probe_operations == 1

    def test_shared_copy_makes_no_twin(self, grid_graph, monkeypatch):
        twinned = []
        twin = Channel._twin

        def counting_twin(channel, *args, **kwargs):
            twinned.append(channel)
            return twin(channel, *args, **kwargs)

        monkeypatch.setattr(Channel, "_twin", counting_twin)
        grid_graph.hold(1, 2, 5.0)
        clone = grid_graph.copy()
        twinned.clear()  # the held channel's zero-hold twin in the clone
        path = [0, 1, 2, 5, 8]
        for graph in (grid_graph, clone):
            probe = NetworkView(graph).probe_path(path)
            assert _readings(probe) == _per_hop(graph, path)
        assert twinned == []
        assert clone._adj[0][1] is grid_graph._adj[0][1]
        assert not clone._adj[0][1]._owner.live

    def test_repriced_records_read_like_per_hop_reads(self):
        graphs = []
        for _ in range(2):
            graph = _crossed_graph()
            graph.add_channel(3, 4, 70.0, 80.0)
            assign_market_policies(graph, random.Random(0), initial_rate=0.02)
            assert FeeMarketController(decay=0.5).update(graph, 0.0)
            graphs.append(graph)
        probed, reference = graphs
        path = [0, 1, 2, 3]
        probe = NetworkView(probed).probe_path(path)
        assert _readings(probe) == _per_hop(reference, path)
        assert [policy.fee_rate for policy in probe.fees] == [0.01] * 3
        # The live rates stay in the snapshot's array: no record was
        # written, in the probed directions or any other.
        for channel in probed.channels():
            assert channel.fee_ab.fee_rate == channel.fee_ba.fee_rate == 0.02

    def test_repriced_reads_make_no_twin(self, monkeypatch):
        twinned = []
        twin = Channel._twin

        def counting_twin(channel, *args, **kwargs):
            twinned.append(channel)
            return twin(channel, *args, **kwargs)

        monkeypatch.setattr(Channel, "_twin", counting_twin)
        graph = _crossed_graph()
        assign_market_policies(graph, random.Random(0), initial_rate=0.02)
        clone = graph.copy()
        assert FeeMarketController(decay=0.5).update(graph, 0.0)
        path = [0, 1, 2, 3]
        probe = NetworkView(graph).probe_path(path)
        hops = list(zip(path, path[1:]))
        assert [graph.channel_policy(u, v) for u, v in hops] == list(
            probe.fees
        )
        assert [policy.fee_rate for policy in probe.fees] == [0.01] * 3
        assert graph.path_hop_amounts(path, 10.0) == pytest.approx(
            [10.201, 10.1, 10.0]
        )
        assert twinned == []
        assert clone.channel_policy(0, 1).fee_rate == 0.02

    @pytest.mark.parametrize("path", [[], [0]])
    def test_hopless_probe_raises_and_counts_nothing(self, line_graph, path):
        view = NetworkView(line_graph)
        with pytest.raises(NoChannelError):
            view.probe_path(path)
        with view.open_session() as session:
            with pytest.raises(NoChannelError):
                session.probe(path)
        assert view.counters == MessageCounters()


class TestSession:
    def test_reserve_and_commit_moves_funds(self, line_graph):
        view = NetworkView(line_graph)
        with view.open_session() as session:
            assert session.try_reserve([0, 1, 2], 30.0)
            session.commit()
        assert line_graph.balance(0, 1) == 70.0
        assert line_graph.balance(1, 0) == 130.0

    def test_abort_restores_funds(self, line_graph):
        view = NetworkView(line_graph)
        session = view.open_session()
        assert session.try_reserve([0, 1, 2], 30.0)
        session.abort()
        assert line_graph.balance(0, 1) == 100.0

    def test_context_manager_aborts_by_default(self, line_graph):
        view = NetworkView(line_graph)
        with view.open_session() as session:
            session.try_reserve([0, 1, 2], 30.0)
        assert line_graph.balance(0, 1) == 100.0

    def test_failed_reserve_releases_partial_holds(self, line_graph):
        line_graph.channel(2, 3).transfer(2, 3, 95.0)
        view = NetworkView(line_graph)
        with view.open_session() as session:
            assert not session.try_reserve([0, 1, 2, 3], 30.0)
            # Holds on 0-1 and 1-2 must have been released.
            assert session.probe([0, 1, 2]).balances == (100.0, 100.0)

    @pytest.mark.parametrize("policy_aware", [False, True])
    @pytest.mark.parametrize("closed_hop", [1, 2])
    def test_closed_hop_bounces_the_attempt(
        self, line_graph, closed_hop, policy_aware
    ):
        # A path planned before a channel closed.  A policy-aware graph
        # cannot price the escrow over the closed hop; the attempt must
        # still bounce there as on a fee-free graph, holding nothing.
        if policy_aware:
            line_graph.set_channel_policy(
                0, 1, ChannelPolicy(base_fee=0.5, fee_rate=0.01)
            )
        line_graph.remove_channel(closed_hop, closed_hop + 1)
        view = NetworkView(line_graph)
        with view.open_session() as session:
            assert not session.try_reserve([0, 1, 2, 3], 10.0)
            assert session.reserved_total == 0.0
        assert line_graph.total_held() == 0.0
        assert view.counters.payment_attempts == 1
        assert view.counters.payment_messages == closed_hop + 1

    def test_reservations_interact_within_session(self, line_graph):
        view = NetworkView(line_graph)
        with view.open_session() as session:
            assert session.try_reserve([0, 1], 80.0)
            assert not session.try_reserve([0, 1], 30.0)
            assert session.try_reserve([0, 1], 20.0)
            assert session.reserved_total == 100.0

    def test_double_commit_rejected(self, line_graph):
        view = NetworkView(line_graph)
        session = view.open_session()
        session.try_reserve([0, 1], 10.0)
        session.commit()
        with pytest.raises(ProtocolError):
            session.commit()

    def test_zero_amount_reserve_fails(self, line_graph):
        view = NetworkView(line_graph)
        with view.open_session() as session:
            assert not session.try_reserve([0, 1], 0.0)

    def test_failed_attempt_costs_messages(self, line_graph):
        line_graph.channel(0, 1).transfer(0, 1, 100.0)
        view = NetworkView(line_graph)
        with view.open_session() as session:
            session.try_reserve([0, 1, 2], 50.0)
        # The attempt bounced at the first hop: exactly 1 payment message.
        assert view.counters.payment_messages == 1
        assert view.counters.payment_attempts == 1


class TestTryExecute:
    def test_success(self, diamond_graph):
        view = NetworkView(diamond_graph)
        ok = view.try_execute([((0, 1, 3), 40.0), ((0, 2, 3), 40.0)])
        assert ok
        assert diamond_graph.balance(0, 1) == 10.0

    def test_failure_is_atomic(self, diamond_graph):
        view = NetworkView(diamond_graph)
        ok = view.try_execute([((0, 1, 3), 60.0), ((0, 2, 3), 40.0)])
        assert not ok
        assert diamond_graph.balance(0, 1) == 50.0
        assert diamond_graph.balance(0, 2) == 50.0

    def test_counts_messages(self, diamond_graph):
        view = NetworkView(diamond_graph)
        view.try_execute([((0, 1, 3), 10.0), ((0, 2, 3), 10.0)])
        assert view.counters.payment_messages == 4
        assert view.counters.payment_attempts == 1
