"""The router interface shared by Flash and every baseline.

A router receives one :class:`~repro.traces.workload.Transaction` at a time
(the paper's online model: "payments arrive at senders sequentially", §4.1)
and must deliver it atomically through its
:class:`~repro.network.view.NetworkView`.  All balance knowledge must come
from probes; all balance changes must go through sessions or
``try_execute`` — both of which are counted, which is what makes the
overhead comparison (Fig 8) fair across schemes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.network.channel import NodeId
from repro.network.view import NetworkView
from repro.traces.workload import Transaction

PathTuple = tuple[NodeId, ...]


@dataclass(frozen=True)
class RoutingOutcome:
    """The result of routing one transaction.

    Payments are atomic (AMP): ``delivered`` is either the full amount or
    zero.  ``fee`` is the total transaction fee the delivery would incur
    across all partial payments; it is a reported metric, not deducted from
    channel balances (the paper's simulator measures fees the same way —
    Fig 9 reports the fee-to-volume *ratio*).
    """

    success: bool
    delivered: float
    transfers: tuple[tuple[PathTuple, float], ...] = ()
    fee: float = 0.0

    @staticmethod
    def failure() -> "RoutingOutcome":
        return RoutingOutcome(success=False, delivered=0.0)


@dataclass
class RouterStats:
    """Cumulative per-router statistics, updated by the router itself."""

    routed: int = 0
    succeeded: int = 0
    volume_attempted: float = 0.0
    volume_delivered: float = 0.0
    fees: float = 0.0

    def record(self, transaction: Transaction, outcome: RoutingOutcome) -> None:
        self.routed += 1
        self.volume_attempted += transaction.amount
        if outcome.success:
            self.succeeded += 1
            self.volume_delivered += outcome.delivered
            self.fees += outcome.fee

    @property
    def success_ratio(self) -> float:
        return self.succeeded / self.routed if self.routed else 0.0


class Router(abc.ABC):
    """Base class: route transactions over a probed network view."""

    #: Human-readable scheme name used in result tables.
    name: str = "router"

    def __init__(self, view: NetworkView) -> None:
        self.view = view
        self.stats = RouterStats()

    def route(self, transaction: Transaction) -> RoutingOutcome:
        """Route one transaction and record statistics."""
        outcome = self._route(transaction)
        self.stats.record(transaction, outcome)
        return outcome

    @abc.abstractmethod
    def _route(self, transaction: Transaction) -> RoutingOutcome:
        """Scheme-specific routing logic."""

    def on_topology_update(self, events=None) -> None:
        """Hook invoked when the gossiped topology changes (default: no-op).

        ``events`` (when the gossip layer provides it) is the batch of
        :class:`~repro.network.dynamics.ChannelEvent` applied since the
        last tick; events-aware routers use it to invalidate only the
        caches the batch touched instead of everything.
        """

    def transfers_fee(
        self, transfers: list[tuple[PathTuple, float]]
    ) -> float:
        """Total fee of a set of partial payments under current policies."""
        return sum(
            self.view.path_fee(list(path), amount) for path, amount in transfers
        )
