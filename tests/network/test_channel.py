"""Unit tests for the payment channel primitive."""

import pytest

from repro.errors import ChannelError, InsufficientBalanceError
from repro.network.channel import Channel
from repro.network.fees import LinearFee


def make_channel(ab=40.0, ba=20.0) -> Channel:
    return Channel("alice", "bob", ab, ba)


class TestConstruction:
    def test_endpoints(self):
        channel = make_channel()
        assert channel.endpoints() == ("alice", "bob")

    def test_other(self):
        channel = make_channel()
        assert channel.other("alice") == "bob"
        assert channel.other("bob") == "alice"

    def test_other_rejects_stranger(self):
        with pytest.raises(ChannelError):
            make_channel().other("carol")

    def test_self_channel_rejected(self):
        with pytest.raises(ChannelError):
            Channel("alice", "alice", 1.0, 1.0)

    def test_negative_deposit_rejected(self):
        with pytest.raises(ChannelError):
            Channel("alice", "bob", -1.0, 1.0)


class TestBalances:
    def test_directional_balances(self):
        channel = make_channel()
        assert channel.balance("alice", "bob") == 40.0
        assert channel.balance("bob", "alice") == 20.0

    def test_total_capacity(self):
        assert make_channel().total_capacity() == 60.0

    def test_unknown_direction_rejected(self):
        with pytest.raises(ChannelError):
            make_channel().balance("alice", "carol")


class TestTransfer:
    def test_paper_figure1_sequence(self):
        """Alice deposits 4, Bob 2; Alice pays 1; Bob pays 2 (Fig 1)."""
        channel = Channel("alice", "bob", 4.0, 2.0)
        channel.transfer("alice", "bob", 1.0)
        assert channel.balance("alice", "bob") == 3.0
        assert channel.balance("bob", "alice") == 3.0
        channel.transfer("bob", "alice", 2.0)
        assert channel.balance("alice", "bob") == 5.0
        assert channel.balance("bob", "alice") == 1.0

    def test_conserves_total(self):
        channel = make_channel()
        channel.transfer("alice", "bob", 12.5)
        assert channel.total_capacity() == 60.0

    def test_overdraft_rejected(self):
        channel = make_channel()
        with pytest.raises(InsufficientBalanceError):
            channel.transfer("bob", "alice", 20.5)

    def test_overdraft_leaves_state_unchanged(self):
        channel = make_channel()
        try:
            channel.transfer("alice", "bob", 100.0)
        except InsufficientBalanceError:
            pass
        assert channel.balance("alice", "bob") == 40.0

    def test_exact_balance_transfer(self):
        channel = make_channel()
        channel.transfer("alice", "bob", 40.0)
        assert channel.balance("alice", "bob") == 0.0
        assert channel.balance("bob", "alice") == 60.0

    def test_zero_transfer_is_noop(self):
        channel = make_channel()
        channel.transfer("alice", "bob", 0.0)
        assert channel.balance("alice", "bob") == 40.0

    def test_negative_transfer_rejected(self):
        with pytest.raises(ChannelError):
            make_channel().transfer("alice", "bob", -1.0)


class TestHolds:
    def test_hold_reduces_spendable(self):
        channel = make_channel()
        channel.hold("alice", "bob", 15.0)
        assert channel.balance("alice", "bob") == 25.0

    def test_hold_does_not_move_funds(self):
        channel = make_channel()
        channel.hold("alice", "bob", 15.0)
        assert channel.balance("bob", "alice") == 20.0
        assert channel.total_capacity() == 60.0

    def test_hold_overdraft_refused(self):
        channel = make_channel()
        assert channel.hold("alice", "bob", 30.0) is True
        # A refused hold is a return value and leaves the channel as it was.
        assert channel.hold("alice", "bob", 15.0) is False
        assert channel.held("alice", "bob") == 30.0
        assert channel.balance("alice", "bob") == 10.0
        # Within the float tolerance the exact remainder still fits.
        assert channel.hold("alice", "bob", 10.0) is True

    def test_settle_hold_transfers(self):
        channel = make_channel()
        channel.hold("alice", "bob", 15.0)
        channel.settle_hold("alice", "bob", 15.0)
        assert channel.balance("alice", "bob") == 25.0
        assert channel.balance("bob", "alice") == 35.0
        assert channel.held("alice", "bob") == 0.0

    def test_release_hold_restores(self):
        channel = make_channel()
        channel.hold("alice", "bob", 15.0)
        channel.release_hold("alice", "bob", 15.0)
        assert channel.balance("alice", "bob") == 40.0

    def test_release_more_than_held_rejected(self):
        channel = make_channel()
        channel.hold("alice", "bob", 5.0)
        with pytest.raises(ChannelError):
            channel.release_hold("alice", "bob", 6.0)

    def test_independent_direction_holds(self):
        channel = make_channel()
        channel.hold("alice", "bob", 10.0)
        channel.hold("bob", "alice", 5.0)
        assert channel.held("alice", "bob") == 10.0
        assert channel.held("bob", "alice") == 5.0


class TestFees:
    def test_fee_policy_per_direction(self):
        channel = make_channel()
        channel.set_fee_policy("alice", "bob", LinearFee(rate=0.01))
        assert channel.fee_policy("alice", "bob").fee(100.0) == pytest.approx(1.0)
        assert channel.fee_policy("bob", "alice").fee(100.0) == 0.0
