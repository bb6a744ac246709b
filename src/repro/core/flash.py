"""The Flash router: elephant/mice differentiated dynamic routing (§3).

``FlashRouter`` glues the pieces together exactly as the paper describes:

* the **classifier** decides elephant vs. mouse (default: static threshold
  with 90% of payments mice, §4.1);
* **elephants** run Algorithm 1 (modified Edmonds–Karp probing, ``k=20``)
  then split the demand across the probed paths with the fee-minimizing
  program (1), executed atomically with per-channel netting;
* **mice** use the routing table (top-``m=4`` Yen paths per receiver) and
  the randomized trial-and-error loop, probing only on failure; dead paths
  are replaced with the next shortest path.
"""

from __future__ import annotations

import random

from repro.core.base import Router, RoutingOutcome
from repro.core.classifier import StaticThresholdClassifier
from repro.core.fee_optimizer import split_payment
from repro.core.maxflow import find_elephant_paths
from repro.core.mice import route_mice_payment
from repro.core.routing_table import RoutingTable
from repro.network.view import NetworkView
from repro.traces.workload import Transaction

_EPS = 1e-9

#: Paper defaults (§4.1): k = 20 elephant paths, m = 4 mice paths.
DEFAULT_K = 20
DEFAULT_M = 4


class FlashRouter(Router):
    """Flash dynamic routing (the paper's primary contribution)."""

    name = "Flash"

    def __init__(
        self,
        view: NetworkView,
        classifier=None,
        k: int = DEFAULT_K,
        m: int = DEFAULT_M,
        rng: random.Random | None = None,
        optimize_fees: bool = True,
        convex_fees: bool = False,
        shuffle_mice_paths: bool = True,
    ) -> None:
        super().__init__(view)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.classifier = (
            classifier
            if classifier is not None
            else StaticThresholdClassifier.all_mice()
        )
        self.k = k
        self.m = m
        self.rng = rng if rng is not None else random.Random(0)
        self.optimize_fees = optimize_fees
        self.convex_fees = convex_fees
        self.shuffle_mice_paths = shuffle_mice_paths
        self.table = RoutingTable(m=m)
        # The interned CSR snapshot: every BFS/Yen below runs its integer
        # fast path, and the mapping protocol keeps it API-compatible.
        self._topology = view.compact_topology()
        #: Per-class counters for the microbenchmarks (Figs 10 & 11).
        self.elephant_count = 0
        self.mice_count = 0

    # ------------------------------------------------------------ plumbing

    def on_topology_update(self, events=None) -> None:
        """Re-read the gossiped topology and refresh the routing table.

        With an event batch (events-aware gossip) the refresh is
        **selective**: only the BFS layers and table entries the batch
        actually touched are recomputed
        (:meth:`~repro.core.routing_table.RoutingTable.apply_events`).
        Without one it falls back to the paper's full re-computation
        ("all entries are re-computed using the latest G", §3.3).
        """
        self._topology = self.view.compact_topology()
        if events is None:
            self.table.refresh(self._topology)
        else:
            self.table.apply_events(events, self._topology)

    # ------------------------------------------------------------- routing

    def _route(self, transaction: Transaction) -> RoutingOutcome:
        is_elephant = self.classifier.is_elephant(transaction.amount)
        self.classifier.observe(transaction.amount)
        if is_elephant:
            self.elephant_count += 1
            return self._route_elephant(transaction)
        self.mice_count += 1
        return self._route_mice(transaction)

    def _route_elephant(self, transaction: Transaction) -> RoutingOutcome:
        """Algorithm 1 + program (1) + atomic netted execution."""
        search = find_elephant_paths(
            self._topology,
            self.view,
            transaction.sender,
            transaction.receiver,
            transaction.amount,
            self.k,
        )
        if not search.satisfied:
            # Algorithm 1 returns ∅: the k probed paths cannot carry d.
            return RoutingOutcome.failure()
        split = split_payment(
            search,
            transaction.amount,
            optimize_fees=self.optimize_fees,
            convex=self.convex_fees,
        )
        if split.total + _EPS < transaction.amount:
            return RoutingOutcome.failure()
        transfers = list(split.transfers)
        if not self.view.try_execute(transfers):
            # Balances moved between probe and commit; the payment fails
            # atomically (funds are never partially applied).
            return RoutingOutcome.failure()
        return RoutingOutcome(
            success=True,
            delivered=transaction.amount,
            transfers=tuple(transfers),
            fee=self.transfers_fee(transfers),
        )

    def _route_mice(self, transaction: Transaction) -> RoutingOutcome:
        """Routing-table lookup + randomized trial-and-error loop."""
        entry = self.table.lookup(
            transaction.sender, transaction.receiver, self._topology
        )
        if not entry.paths:
            return RoutingOutcome.failure()
        paths = list(entry.paths)
        with self.view.open_session() as session:
            result = route_mice_payment(
                session,
                paths,
                transaction.amount,
                self.rng,
                shuffle=self.shuffle_mice_paths,
            )
            if result.success:
                session.commit()
            else:
                session.abort()
        for dead in result.dead_paths:
            self.table.replace_path(
                transaction.sender, transaction.receiver, dead, self._topology
            )
        if not result.success:
            return RoutingOutcome.failure()
        transfers = tuple(result.transfers)
        return RoutingOutcome(
            success=True,
            delivered=transaction.amount,
            transfers=transfers,
            fee=self.transfers_fee(list(transfers)),
        )
