"""Unit tests for the probing view and payment sessions."""

import pytest

from repro.errors import ProtocolError
from repro.network.fees import ChannelPolicy
from repro.network.view import NetworkView


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
