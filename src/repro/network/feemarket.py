"""Load-responsive fee markets over BOLT #7 channel policies.

The fee-market scenario family prices channels with
:class:`~repro.network.fees.ChannelPolicy` records and lets selected
nodes *reprice* between gossip periods in response to the payment volume
they actually relayed — the revenue-vs-success tradeoff study that grows
the paper's static Fig 9 sweep (``fig9_fee_optimization``) into a
dynamic market.

Two pieces:

* :func:`assign_market_policies` seeds the initial per-direction
  policies on a graph (uniform rate, or the paper's Fig-9 two-band
  mix), flipping it into policy-aware mode;
* :class:`FeeMarketController` is the repricing rule.  It is **frozen
  and stateless** — parameters only.  All mutable market state lives on
  the per-run graph copy, so the same controller instance can be shared
  by every scheme's run of a sweep without leaking state across them:
  :attr:`ChannelGraph.traffic` accrues settled volume and is cleared
  each tick, the live rates are the ``fee_rate`` array of the graph's
  compact snapshot (:meth:`ChannelGraph.reprice`), which the graph's
  fee readers read them from, and :attr:`ChannelGraph.priced_slots`
  indexes the priced directions of that snapshot.

The controller is ticked by
:meth:`~repro.network.dynamics.GossipSchedule.advance_to` on the gossip
cadence: fee repricing *is* ``channel_update`` gossip, so a repricing
tick both mutates policies and triggers a router gossip round even when
the churn event stream is empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.network.channel import NodeId
from repro.network.compact import CompactTopology
from repro.network.fees import ChannelPolicy, sample_paper_fee
from repro.network.graph import ChannelGraph


def assign_market_policies(
    graph: ChannelGraph,
    rng: random.Random,
    base_fee: float = 0.0,
    initial_rate: float = 0.005,
    paper_mix: bool = False,
) -> int:
    """Install initial :class:`ChannelPolicy` records on every direction.

    ``paper_mix=True`` draws each direction's proportional rate with the
    Fig-9 mix (90% of channels in [0.1%, 1%), 10% in [1%, 10%)) instead
    of the uniform ``initial_rate``; channels are visited in the graph's
    deterministic channel order, both directions per channel, so equal
    seeds give equal markets.  Returns the number of directions priced.
    """
    priced = 0
    for channel in graph.channels():
        a, b = channel.endpoints()
        for src, dst in ((a, b), (b, a)):
            rate = (
                sample_paper_fee(rng).rate if paper_mix else initial_rate
            )
            graph.set_channel_policy(
                src, dst, ChannelPolicy(base_fee=base_fee, fee_rate=rate)
            )
            priced += 1
    return priced


@dataclass(frozen=True, eq=False)
class PricedSlots:
    """The priced directions of one snapshot.

    ``directions`` maps each priced ``(u, v)`` to its slot, and
    ``funded`` holds, as one index array, the slots of those whose
    channel holds any funds.  Valid while ``snapshot`` is the graph's
    current one: any channel open or close derives a new snapshot.
    Nothing else funds or drains a channel, because transfers and holds
    only move funds within a channel and
    :meth:`ChannelGraph.scale_balances` scales them by a positive
    factor.
    """

    snapshot: CompactTopology
    hubs: int
    funded: np.ndarray
    directions: dict[tuple[NodeId, NodeId], int]


@dataclass(frozen=True)
class FeeMarketController:
    """Multiplicative load-responsive repricing of channel fee rates.

    At each gossip tick, every *priced node* (the ``hubs``
    highest-degree nodes, or all nodes when ``hubs == 0``) adjusts the
    proportional rate of each outgoing direction by

    ``rate <- clamp(rate * (decay + sensitivity * utilization),
    min_rate, max_rate)``

    where ``utilization`` is the volume the direction settled since the
    last tick (read from :attr:`ChannelGraph.traffic`, then cleared)
    over the channel's total funds.  Idle channels decay toward
    ``min_rate`` (``decay < 1``); loaded ones surge toward ``max_rate``.
    The equilibrium utilization — where the factor is exactly 1 — is
    ``(1 - decay) / sensitivity``.

    ``update`` returns True when any policy changed, which
    :class:`~repro.network.dynamics.GossipSchedule` treats as pending
    ``channel_update`` gossip.

    A tick writes a new slot-indexed ``fee_rate`` array for the graph's
    compact snapshot, which :meth:`ChannelGraph.reprice` installs: the
    idle decay of every funded priced slot is one array operation, and
    only the directions with traffic are priced one by one.  No policy
    record is written; the graph's fee readers take each live rate
    from the array.
    """

    hubs: int = 0
    min_rate: float = 0.001
    max_rate: float = 0.10
    sensitivity: float = 4.0
    decay: float = 0.9

    def priced_nodes(self, graph: ChannelGraph) -> list:
        """The repricing nodes, in deterministic rank order."""
        nodes = graph.nodes
        if self.hubs <= 0:
            return nodes
        ranked = sorted(
            nodes, key=lambda node: (-graph.degree(node), repr(node))
        )
        return ranked[: self.hubs]

    def update(self, graph: ChannelGraph, now: float) -> bool:
        """Reprice one tick from the accrued traffic; clear the signal."""
        traffic = graph.traffic
        snapshot, rates = graph.fee_rates()
        priced = self._priced_slots(graph, snapshot)
        decay = self.decay
        sensitivity = self.sensitivity
        low = self.min_rate
        high = self.max_rate
        # The factor of a direction with no traffic, computed exactly as
        # a loaded one's (``utilization`` is ``0.0 / capacity``).  On
        # float64 the clamp gives the bits of ``min(high, max(low, x))``:
        # rates are never NaN.
        idle = decay + sensitivity * 0.0
        array = np.array(rates, dtype=np.float64)
        funded = priced.funded
        array[funded] = np.minimum(high, np.maximum(low, array[funded] * idle))
        new = array.tolist()
        directions = priced.directions
        for direction, volume in traffic.items():
            slot = directions.get(direction)
            if slot is None:
                continue
            capacity = graph.total_capacity(*direction)
            if capacity <= 0:
                continue
            utilization = volume / capacity
            new[slot] = min(
                high,
                max(low, rates[slot] * (decay + sensitivity * utilization)),
            )
        traffic.clear()
        if new == rates:
            return False
        graph.reprice(snapshot, new)
        return True

    def _priced_slots(
        self, graph: ChannelGraph, snapshot: CompactTopology
    ) -> PricedSlots:
        """The priced directions of ``snapshot``, cached on the graph."""
        cached = graph.priced_slots
        if (
            cached is not None
            and cached.snapshot is snapshot
            and cached.hubs == self.hubs
        ):
            return cached
        nodes = snapshot.nodes
        slot_rows = snapshot.slot_rows
        neighbor_idx = snapshot.neighbor_idx
        funded: list[int] = []
        directions: dict[tuple[NodeId, NodeId], int] = {}
        for u in self.priced_nodes(graph):
            i = snapshot.index_of(u)
            for slot, j in zip(slot_rows[i], neighbor_idx[i]):
                v = nodes[j]
                if graph.total_capacity(u, v) > 0:
                    funded.append(slot)
                directions[(u, v)] = slot
        cached = PricedSlots(
            snapshot,
            self.hubs,
            np.array(funded, dtype=np.intp),
            directions,
        )
        graph.priced_slots = cached
        return cached
