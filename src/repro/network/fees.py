"""Fee policies for payment channels.

The paper assumes each directed channel charges a fee for relaying a partial
payment, with a *convex* charging function ``f(r)`` of the routed amount
``r``; in practice (§3.2) the function is linear — a fixed base fee plus a
volume-proportional component — which makes the fee-minimization program a
linear program.

The evaluation (§4.3, Fig 9) draws proportional rates randomly: 90% of the
channels charge 0.1%–1% of the volume and 10% charge 1%–10%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@runtime_checkable
class FeePolicy(Protocol):
    """A charging function for one direction of a payment channel."""

    def fee(self, amount: float) -> float:
        """Fee charged for relaying ``amount`` through the channel."""
        ...

    def marginal_rate(self, amount: float) -> float:
        """Derivative of the fee at ``amount`` (used by convex solvers)."""
        ...


@dataclass(frozen=True)
class ZeroFee:
    """No fee — useful for pure-capacity experiments."""

    def fee(self, amount: float) -> float:
        return 0.0

    def marginal_rate(self, amount: float) -> float:
        return 0.0


@dataclass(frozen=True)
class LinearFee:
    """``fee(r) = base + rate * r`` — the practical policy of §3.2.

    ``base`` is charged only when a strictly positive amount is routed.
    """

    base: float = 0.0
    rate: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0 or self.rate < 0:
            raise ValueError("fee parameters must be non-negative")

    def fee(self, amount: float) -> float:
        if amount <= 0:
            return 0.0
        return self.base + self.rate * amount

    def marginal_rate(self, amount: float) -> float:
        return self.rate


@dataclass(frozen=True)
class QuadraticFee:
    """``fee(r) = base + rate * r + quad * r**2`` — a convex policy.

    Exercises the convex branch of the optimizer; the paper only requires
    ``f`` convex, so this is the stress-test policy.
    """

    base: float = 0.0
    rate: float = 0.0
    quad: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 0 or self.rate < 0 or self.quad < 0:
            raise ValueError("fee parameters must be non-negative")

    def fee(self, amount: float) -> float:
        if amount <= 0:
            return 0.0
        return self.base + self.rate * amount + self.quad * amount * amount

    def marginal_rate(self, amount: float) -> float:
        return self.rate + 2.0 * self.quad * amount


@dataclass(frozen=True)
class ChannelPolicy:
    """One direction's BOLT #7 gossip record (``channel_update``).

    ``base_fee``/``fee_rate`` mirror ``fee_base_msat`` /
    ``fee_proportional_millionths`` (already scaled to this simulator's
    float units), ``cltv_delta`` the hop's timelock increment, and
    ``htlc_min``/``htlc_max`` the forwarding bounds.  The charging
    function matches :class:`LinearFee`, so a policy slots anywhere a
    :class:`FeePolicy` is accepted (fee optimizer, ``path_fee``), but —
    unlike the legacy policies — its *presence* switches a graph into
    policy-aware mode: compounded BOLT fee recursion and fee-aware
    escrow (see :func:`hop_amounts`).  ``cltv_delta``, ``htlc_min`` and
    ``htlc_max`` are parsed, validated and kept on the record, but no
    router or engine enforces them.
    """

    base_fee: float = 0.0
    fee_rate: float = 0.0
    cltv_delta: int = 40
    htlc_min: float = 0.0
    htlc_max: float = float("inf")

    def __post_init__(self) -> None:
        if self.base_fee < 0 or self.fee_rate < 0:
            raise ValueError("fee parameters must be non-negative")
        if self.cltv_delta < 0:
            raise ValueError("cltv_delta must be non-negative")
        if self.htlc_min < 0 or self.htlc_max < self.htlc_min:
            raise ValueError("need 0 <= htlc_min <= htlc_max")

    def fee(self, amount: float) -> float:
        if amount <= 0:
            return 0.0
        return self.base_fee + self.fee_rate * amount

    def marginal_rate(self, amount: float) -> float:
        return self.fee_rate

    def with_fee_rate(self, fee_rate: float) -> ChannelPolicy:
        """``dataclasses.replace(self, fee_rate=fee_rate)``, at a third of
        the cost.

        A fee-market tick leaves most records to be rebuilt this way on
        the routers' first read, so the copy skips the dataclass
        machinery; only the new rate needs checking, because every
        other field comes from a record that was checked already.
        """
        if fee_rate < 0:
            raise ValueError("fee parameters must be non-negative")
        record = object.__new__(ChannelPolicy)
        fields = record.__dict__
        fields.update(self.__dict__)
        fields["fee_rate"] = fee_rate
        return record


#: The policy of a channel direction with no gossip record: free,
#: unconstrained forwarding.  Used for slots opened by churn after the
#: last policy assignment.
DEFAULT_POLICY = ChannelPolicy()


def hop_amounts(
    policies: list[FeePolicy], amount: float
) -> list[float]:
    """Per-edge amounts delivering ``amount`` along a path (BOLT #7).

    ``policies[i]`` is the policy of the path's ``i``-th directed edge.
    Working backwards from the receiver, every intermediate node keeps
    its own fee before forwarding, so edge ``i`` must carry the amount
    arriving at node ``i+1``; the sender's own edge adds no fee.  The
    returned list has one entry per edge; ``amounts[0] - amount`` is
    the total fee the sender pays.  The accumulation order (receiver to
    sender) is the canonical one: escrow and the fee metrics both price
    through here, and ``tests/core/test_fee_arithmetic.py`` pins it.
    """
    amounts = [0.0] * len(policies)
    a = amount
    for i in range(len(policies) - 1, 0, -1):
        amounts[i] = a
        a = a + policies[i].fee(a)
    if policies:
        amounts[0] = a
    return amounts


def fee_breakdown(
    path: list, policies: list[FeePolicy], amount: float
) -> dict:
    """Per-node fee revenue for delivering ``amount`` along ``path``.

    Node ``path[i]`` (intermediate) pockets the difference between what
    arrives on its inbound edge and what it forwards — zero entries are
    omitted.  The sender and receiver never earn.
    """
    amounts = hop_amounts(policies, amount)
    revenue: dict = {}
    for i in range(1, len(amounts)):
        earned = amounts[i - 1] - amounts[i]
        if earned > 0:
            revenue[path[i]] = revenue.get(path[i], 0.0) + earned
    return revenue


def sample_paper_fee(rng: random.Random) -> LinearFee:
    """Draw one channel fee with the paper's Fig-9 mix.

    90% of the channels charge a proportional rate uniform in [0.1%, 1%),
    and the remaining 10% charge uniform in [1%, 10%).
    """
    if rng.random() < 0.9:
        rate = rng.uniform(0.001, 0.01)
    else:
        rate = rng.uniform(0.01, 0.10)
    return LinearFee(base=0.0, rate=rate)


def path_fee(policies: list[FeePolicy], amount: float) -> float:
    """Total fee of sending ``amount`` across a path's channel policies."""
    return sum(policy.fee(amount) for policy in policies)
