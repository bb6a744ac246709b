"""Channel rebalancing — the Revive-style extension ([22] in the paper).

The paper observes (§4.2) that channels saturate in one direction under
load, degrading every scheme's success ratio.  Revive proposes
*rebalancing*: a set of cooperating nodes route funds in a cycle, which
nets to zero at every node but shifts balance from each cycle channel's
rich direction to its depleted direction.

This module implements cycle rebalancing on top of the same atomic netted
execution the routers use:

* :func:`channel_skew` measures directional imbalance;
* :func:`find_rebalancing_cycle` finds a cycle that refills a depleted
  direction using only channels with spare balance;
* :class:`Rebalancer` scans for the most skewed channels and executes
  rebalancing cycles, preserving every channel's total capacity.

The ablation benchmark shows the paper's implied benefit: running the
rebalancer between payment bursts lifts the success ratio of *every*
routing scheme, because paths stop dying one-directionally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ChannelError
from repro.network.channel import Channel, NodeId
from repro.network.graph import ChannelGraph, Transfer
from repro.network.paths import bfs_shortest_path

_EPS = 1e-9


def channel_skew(channel: Channel) -> float:
    """Imbalance in [0, 1]: 0 = perfectly even, 1 = fully one-sided."""
    total = channel.total_capacity()
    if total <= 0:
        return 0.0
    return abs(channel.balance_ab - channel.balance_ba) / total


def find_rebalancing_cycle(
    graph: ChannelGraph,
    rich: NodeId,
    poor: NodeId,
    amount: float,
) -> list[NodeId] | None:
    """A cycle ``rich -> poor -> ... -> rich`` able to carry ``amount``.

    The first hop is the skewed channel itself, traversed in its *rich*
    direction: transferring ``amount`` from ``rich`` to ``poor`` refills
    the depleted ``poor -> rich`` balance.  The rest of the cycle returns
    the funds to ``rich`` over a detour of channels that each have at
    least ``amount`` of spare directional balance (the direct channel is
    excluded from the detour, otherwise the cycle would undo itself).
    """
    if graph.balance(rich, poor) < amount - _EPS:
        return None

    def edge_ok(u: NodeId, v: NodeId) -> bool:
        if (u, v) == (poor, rich):
            return False
        return graph.balance(u, v) >= amount - _EPS

    detour = bfs_shortest_path(graph.compact(), poor, rich, edge_ok=edge_ok)
    if detour is None or len(detour) < 2:
        return None
    return [rich] + detour


@dataclass
class RebalanceReport:
    """What one rebalancing pass did."""

    cycles_executed: int = 0
    volume_shifted: float = 0.0
    channels_considered: int = 0
    cycles: list[tuple[NodeId, ...]] = field(default_factory=list)


class Rebalancer:
    """Periodic cycle rebalancing over the most skewed channels.

    Rebalancing is a cooperative offline protocol (participants sign a
    cycle of updates), so unlike routing it may read ground-truth
    balances.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        rng: random.Random | None = None,
        skew_threshold: float = 0.6,
        target_fraction: float = 0.5,
    ) -> None:
        if not 0.0 <= skew_threshold <= 1.0:
            raise ValueError("skew_threshold must be in [0, 1]")
        if not 0.0 < target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        self.graph = graph
        self.rng = rng if rng is not None else random.Random(0)
        self.skew_threshold = skew_threshold
        self.target_fraction = target_fraction

    def _skewed_channels(self) -> list[Channel]:
        skewed = [
            channel
            for channel in self.graph.channels()
            if channel_skew(channel) >= self.skew_threshold
            and channel.total_capacity() > 0
        ]
        skewed.sort(key=channel_skew, reverse=True)
        return skewed

    def rebalance_once(self, max_cycles: int = 10) -> RebalanceReport:
        """Execute up to ``max_cycles`` rebalancing cycles; returns a report."""
        report = RebalanceReport()
        for channel in self._skewed_channels():
            if report.cycles_executed >= max_cycles:
                break
            report.channels_considered += 1
            # The live channel: an earlier cycle may have written it,
            # which swaps in a twin if it was shared with a graph copy.
            channel = self.graph.channel(channel.a, channel.b)
            if channel.balance_ab >= channel.balance_ba:
                rich, poor = channel.a, channel.b
            else:
                rich, poor = channel.b, channel.a
            imbalance = abs(channel.balance_ab - channel.balance_ba)
            amount = imbalance * self.target_fraction / 2.0
            if amount <= _EPS:
                continue
            cycle = find_rebalancing_cycle(self.graph, rich, poor, amount)
            if cycle is None:
                continue
            try:
                self.graph.execute([Transfer(tuple(cycle), amount)])
            except ChannelError:
                # The cycle's funds moved since it was found: skip it.
                continue
            report.cycles_executed += 1
            report.volume_shifted += amount
            report.cycles.append(tuple(cycle))
        return report

    def run(self, passes: int = 3, max_cycles: int = 10) -> RebalanceReport:
        """Multiple passes (later passes see the improved balance)."""
        total = RebalanceReport()
        for _ in range(max(1, passes)):
            report = self.rebalance_once(max_cycles=max_cycles)
            total.cycles_executed += report.cycles_executed
            total.volume_shifted += report.volume_shifted
            total.channels_considered += report.channels_considered
            total.cycles.extend(report.cycles)
            if report.cycles_executed == 0:
                break
        return total
