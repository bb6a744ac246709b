"""The payment channel primitive (§2.1 of the paper).

A channel is a bidirectional funds arrangement between two parties.  Each
party owns a *directional balance*: ``balance(u, v)`` limits how much ``u``
may still send to ``v``.  A successful transfer of ``x`` from ``u`` to ``v``
moves ``x`` from ``balance(u, v)`` to ``balance(v, u)``, so the *total*
capacity of the channel is invariant — the property the tests and the
hypothesis suite assert.

Channels also support two-phase *holds* (escrow), which the protocol
substrate uses to model HTLC-style commitment: a hold reserves funds in one
direction; it is later either settled (credited to the other side) or
released (returned to the sender side).  The concurrent simulation
engine (:mod:`repro.sim.concurrent`) keeps holds open across simulated
time, so :meth:`Channel.balance` — which is defined **net of holds** —
is what makes overlapping payments contend: every probe and every
reservation sees ``available = deposit - in_flight``.

A channel that lives in a :class:`~repro.network.graph.ChannelGraph` is
written *through the graph* (``graph.channel(a, b)``, ``graph.hold``,
``graph.execute`` ...).  Copies of a graph share their source's channel
objects until one of them writes a channel (see
:meth:`ChannelGraph.copy`), and each channel carries the
:class:`OwnerCell` of the one graph allowed to write it in place.  Once
that cell is retired the channel is shared, and every mutator here
raises :class:`~repro.errors.ChannelError` rather than write into a
sibling graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ChannelError, InsufficientBalanceError
from repro.network.fees import FeePolicy, ZeroFee

NodeId = int | str

_EPS = 1e-9


class OwnerCell:
    """Write ownership shared by every channel one graph may write in place.

    Live until :meth:`ChannelGraph.copy` retires it, which turns every
    channel carrying it into a channel shared by the source and its copy.
    """

    __slots__ = ("live",)

    def __init__(self) -> None:
        self.live = True


#: The cell of channels built outside any graph; never retired.
_STANDALONE = OwnerCell()


def _tolerance(amount: float) -> float:
    """Comparison slack for balance checks.

    Amounts span from sub-dollar payments to 1e9+ satoshi, so a purely
    absolute epsilon is either too loose or too tight; combine a small
    absolute floor with a relative term.
    """
    return _EPS + 1e-9 * abs(amount)


@dataclass
class Channel:
    """A bidirectional payment channel between ``a`` and ``b``.

    Parameters
    ----------
    a, b:
        The two endpoints.  Their order is fixed at construction; the
        directional accessors take explicit endpoints so callers never need
        to care which endpoint is "a".
    balance_ab, balance_ba:
        Initial directional balances (``a``'s and ``b``'s deposits).
    fee_ab, fee_ba:
        Fee policy charged for relaying through each direction.

    Write a graph's channel through the graph.  A reference taken before
    the graph is copied (from ``add_channel``, ``channel()`` or
    ``channels()``), or from a copy's ``channels()``, may be shared by
    the graphs, and the mutators of a shared channel raise
    :class:`ChannelError`.
    """

    a: NodeId
    b: NodeId
    balance_ab: float
    balance_ba: float
    fee_ab: FeePolicy = field(default_factory=ZeroFee)
    fee_ba: FeePolicy = field(default_factory=ZeroFee)

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ChannelError(f"self-channel at node {self.a!r}")
        if self.balance_ab < 0 or self.balance_ba < 0:
            raise ChannelError("initial balances must be non-negative")
        self._held_ab = 0.0
        self._held_ba = 0.0
        self._owner = _STANDALONE

    def _twin(self, owner: OwnerCell, holds: bool = True) -> Channel:
        """A private copy owned by ``owner``: deposits, fees and holds.

        ``holds=False`` gives the copy no escrow.  The attributes are
        assigned in the constructor's order, so the twin keeps the
        instance layout of a constructed channel (CPython's inline
        attribute values; copying ``__dict__`` would lose them).
        """
        twin = Channel.__new__(Channel)
        twin.a = self.a
        twin.b = self.b
        twin.balance_ab = self.balance_ab
        twin.balance_ba = self.balance_ba
        twin.fee_ab = self.fee_ab
        twin.fee_ba = self.fee_ba
        twin._held_ab = self._held_ab if holds else 0.0
        twin._held_ba = self._held_ba if holds else 0.0
        twin._owner = owner
        return twin

    def _shared(self) -> ChannelError:
        return ChannelError(
            f"{self!r} is shared with a graph copy; write it through its graph"
        )

    # ----------------------------------------------------------- accessors

    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b)

    def other(self, node: NodeId) -> NodeId:
        """The endpoint opposite ``node``."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ChannelError(f"{node!r} is not an endpoint of {self}")

    def _check_direction(self, src: NodeId, dst: NodeId) -> bool:
        """True if the direction is a->b, False if b->a; raise otherwise."""
        if src == self.a and dst == self.b:
            return True
        if src == self.b and dst == self.a:
            return False
        raise ChannelError(f"({src!r}, {dst!r}) is not a direction of {self}")

    def balance(self, src: NodeId, dst: NodeId) -> float:
        """Spendable balance in the ``src -> dst`` direction (net of holds)."""
        if self._check_direction(src, dst):
            return self.balance_ab - self._held_ab
        return self.balance_ba - self._held_ba

    def readings(self, src: NodeId) -> tuple[float, float, FeePolicy]:
        """What a probe leaving endpoint ``src`` reads off the channel.

        The balance out of ``src``, the balance back into it (both net of
        holds) and the fee policy out of it; ``src`` must be an endpoint.
        """
        if src == self.a:
            return (
                self.balance_ab - self._held_ab,
                self.balance_ba - self._held_ba,
                self.fee_ab,
            )
        return (
            self.balance_ba - self._held_ba,
            self.balance_ab - self._held_ab,
            self.fee_ba,
        )

    def total_capacity(self) -> float:
        """Total funds locked in the channel (directional sum, holds included)."""
        return self.balance_ab + self.balance_ba

    def fee_policy(self, src: NodeId, dst: NodeId) -> FeePolicy:
        return self.fee_ab if self._check_direction(src, dst) else self.fee_ba

    def set_fee_policy(self, src: NodeId, dst: NodeId, policy: FeePolicy) -> None:
        if not self._owner.live:
            raise self._shared()
        if self._check_direction(src, dst):
            self.fee_ab = policy
        else:
            self.fee_ba = policy

    # ----------------------------------------------------------- transfers

    def transfer(self, src: NodeId, dst: NodeId, amount: float) -> None:
        """Atomically move ``amount`` from ``src``'s side to ``dst``'s side."""
        if not self._owner.live:
            raise self._shared()
        if amount < 0:
            raise ChannelError(f"negative transfer amount {amount!r}")
        if amount == 0:
            return
        available = self.balance(src, dst)
        if amount > available + _tolerance(amount):
            raise InsufficientBalanceError(src, dst, amount, available)
        if self._check_direction(src, dst):
            self.balance_ab -= amount
            self.balance_ba += amount
        else:
            self.balance_ba -= amount
            self.balance_ab += amount

    # ------------------------------------------------------------- holds

    def hold(self, src: NodeId, dst: NodeId, amount: float) -> bool:
        """Escrow ``amount`` in the ``src -> dst`` direction (2PC phase 1).

        Returns ``False``, holding nothing, when the direction's balance
        net of holds cannot cover ``amount``: a refused hold is an
        everyday outcome of routing, so it is a value, not an exception.
        """
        if not self._owner.live:
            raise self._shared()
        if amount < 0:
            raise ChannelError(f"negative hold amount {amount!r}")
        if amount > self.balance(src, dst) + _tolerance(amount):
            return False
        if self._check_direction(src, dst):
            self._held_ab += amount
        else:
            self._held_ba += amount
        return True

    def settle_hold(self, src: NodeId, dst: NodeId, amount: float) -> None:
        """Convert a prior hold into a transfer (2PC commit)."""
        self._release(src, dst, amount)
        self.transfer(src, dst, amount)

    def release_hold(self, src: NodeId, dst: NodeId, amount: float) -> None:
        """Cancel a prior hold, returning funds to the sender (2PC abort)."""
        self._release(src, dst, amount)

    def _release(self, src: NodeId, dst: NodeId, amount: float) -> None:
        if not self._owner.live:
            raise self._shared()
        if amount < 0:
            raise ChannelError(f"negative release amount {amount!r}")
        if self._check_direction(src, dst):
            if amount > self._held_ab + _tolerance(amount):
                raise ChannelError("releasing more than held")
            self._held_ab = max(0.0, self._held_ab - amount)
        else:
            if amount > self._held_ba + _tolerance(amount):
                raise ChannelError("releasing more than held")
            self._held_ba = max(0.0, self._held_ba - amount)

    def held(self, src: NodeId, dst: NodeId) -> float:
        """Funds currently escrowed in the ``src -> dst`` direction."""
        return self._held_ab if self._check_direction(src, dst) else self._held_ba

    def total_held(self) -> float:
        """Funds escrowed across both directions (0.0 when idle)."""
        return self._held_ab + self._held_ba

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.a!r}<->{self.b!r}, "
            f"{self.balance_ab:.6g}/{self.balance_ba:.6g})"
        )
