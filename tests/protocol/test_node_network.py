"""Tests for node handlers and the simulated network: probe, 2PC flows."""

import pytest

from repro.network.topology import line_topology
from repro.protocol.driver import PaymentDriver
from repro.protocol.messages import Message, MessageType
from repro.protocol.network import ProtocolNetwork


@pytest.fixture
def net():
    return ProtocolNetwork(line_topology(4, balance=100.0))


@pytest.fixture
def driver(net):
    return PaymentDriver(net, sender=0, txid=1)


class TestProbeFlow:
    def test_probe_returns_both_directions(self, driver):
        forward, reverse = driver.probe([0, 1, 2, 3])
        assert forward == [100.0, 100.0, 100.0]
        assert reverse == [100.0, 100.0, 100.0]

    def test_probe_counts_messages(self, net, driver):
        driver.probe([0, 1, 2, 3])
        # PROBE visits 0,1,2,3 (4 handling events) and PROBE_ACK 3,2,1,0.
        assert net.stats.delivered == 8
        assert net.stats.by_type[MessageType.PROBE] == 4

    def test_probe_advances_clock(self, net, driver):
        before = net.queue.now
        driver.probe([0, 1, 2, 3])
        assert net.queue.now > before


class TestCommitFlow:
    def test_successful_commit_escrows(self, net, driver):
        sub, ok = driver.commit_one([0, 1, 2], 40.0)
        assert ok
        # Funds are held, not yet moved.
        assert net.graph.channel(0, 1).balance(0, 1) == 60.0
        assert net.graph.channel(1, 0).balance(1, 0) == 100.0
        assert net.total_escrow() == pytest.approx(80.0)

    def test_confirm_settles(self, net, driver):
        sub, ok = driver.commit_one([0, 1, 2], 40.0)
        driver.confirm([sub])
        assert net.total_escrow() == 0.0
        assert net.graph.balance(0, 1) == 60.0
        assert net.graph.balance(1, 0) == 140.0
        assert net.graph.balance(2, 1) == 140.0

    def test_reverse_releases(self, net, driver):
        sub, ok = driver.commit_one([0, 1, 2], 40.0)
        driver.reverse([sub])
        assert net.total_escrow() == 0.0
        assert net.graph.balance(0, 1) == 100.0

    def test_insufficient_balance_nacks(self, net, driver):
        net.graph.channel(1, 2).transfer(1, 2, 95.0)
        sub, ok = driver.commit_one([0, 1, 2, 3], 40.0)
        assert not ok
        # Hop 0->1 escrowed before the bounce; REVERSE cleans it up.
        assert net.total_escrow() == pytest.approx(40.0)
        driver.reverse([sub])
        assert net.total_escrow() == 0.0
        assert net.graph.balance(0, 1) == 100.0

    def test_receiver_gets_funds_only_after_confirm(self, net, driver):
        sub, _ = driver.commit_one([0, 1, 2, 3], 25.0)
        assert net.graph.balance(3, 2) == 100.0
        driver.confirm([sub])
        assert net.graph.balance(3, 2) == 125.0

    def test_concurrent_subpayments_share_round(self, net):
        from repro.network.topology import grid_topology

        grid_net = ProtocolNetwork(grid_topology(3, 3, balance=100.0))
        driver = PaymentDriver(grid_net, sender=0, txid=2)
        results = driver.commit([([0, 1, 2, 5, 8], 30.0), ([0, 3, 6, 7, 8], 30.0)])
        assert all(ok for _, ok in results)
        driver.confirm([sub for sub, _ in results])
        assert grid_net.graph.balance(8, 5) == 130.0
        assert grid_net.graph.balance(8, 7) == 130.0


class TestConservation:
    def test_funds_conserved_through_2pc(self, net, driver):
        funds = net.graph.network_funds()
        sub, ok = driver.commit_one([0, 1, 2, 3], 30.0)
        driver.confirm([sub])
        assert net.graph.network_funds() == pytest.approx(funds)

    def test_funds_conserved_through_reverse(self, net, driver):
        funds = net.graph.network_funds()
        sub, _ = driver.commit_one([0, 1, 2, 3], 30.0)
        driver.reverse([sub])
        assert net.graph.network_funds() == pytest.approx(funds)


class TestNetworkPlumbing:
    def test_unknown_node_rejected(self, net):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            net.node(99)

    def test_misdelivered_message_rejected(self, net):
        from repro.errors import ProtocolError

        message = Message(trans_id="x", mtype=MessageType.PROBE, path=(1, 2))
        with pytest.raises(ProtocolError):
            net.node(0).handle(message, net)


class TestDispatch:
    def test_every_type_has_a_handler(self):
        from repro.protocol.node import ProtocolNode

        assert set(ProtocolNode._HANDLERS) == set(MessageType)
        for name in ProtocolNode._HANDLERS.values():
            assert callable(getattr(ProtocolNode, name))

    def test_subclass_override_dispatches(self, net, driver):
        from repro.protocol.node import ProtocolNode

        seen = []

        class Recording(ProtocolNode):
            def _on_probe(self, message, network):
                seen.append((self.node_id, message.index))
                super()._on_probe(message, network)

        net.nodes[1] = Recording(1, net.graph)
        forward, _ = driver.probe([0, 1, 2])
        assert seen == [(1, 1)]
        assert forward == [100.0, 100.0]
