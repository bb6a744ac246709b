"""Topology dynamics: channel churn and gossip-driven updates (§3.1, §3.3).

The paper assumes the structural topology is "fairly stable and changes on
an hourly or daily scale" because opening or closing a channel is an
onchain transaction, and that nodes learn about changes through gossip —
at which point Flash refreshes its routing table ("all entries are
re-computed using the latest G").

This module provides that substrate:

* :class:`ChannelEvent` — an open or close with an activation time;
* :class:`ChurnModel` — generates a Poisson stream of open/close events
  over an existing graph (both kinds name a uniformly sampled node
  pair, so on a sparse graph almost every close names a pair with no
  channel and is refused as a no-op);
* :class:`GossipSchedule` — applies due events to the graph and notifies
  registered routers via their ``on_topology_update`` hook, batching
  notifications at a gossip period (nodes do not learn instantly).

The engine (:mod:`repro.sim.concurrent`, and the sequential engine
:func:`repro.sim.engine.run_simulation`, its zero-contention
configuration) drives a :class:`GossipSchedule` on every run: events
apply at their timestamps, while routers hear of them, and fees
reprice, only when a payment starts.  :func:`run_dynamic_simulation` is
the sequential engine's event-first delegate.
"""

from __future__ import annotations

import enum
import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.errors import TopologyError
from repro.network.channel import NodeId
from repro.network.graph import ChannelGraph


class ChannelEventType(enum.Enum):
    OPEN = "open"
    CLOSE = "close"
    #: Adversary escrow: place a hold on a channel that never settles
    #: (channel jamming; see :mod:`repro.sim.faults`).
    JAM = "jam"
    #: Release the jam holds previously placed under the event's ``tag``.
    UNJAM = "unjam"
    #: Adversary rebalancing flood: shift a fraction of one direction's
    #: available balance to the other side, unbalancing the channel.
    DRAIN = "drain"

#: The event kinds that change the graph's structure (and therefore get
#: gossiped to routers).  The fault kinds only move or escrow balance.
TOPOLOGY_EVENT_KINDS = frozenset(
    {ChannelEventType.OPEN, ChannelEventType.CLOSE}
)


@dataclass(frozen=True)
class ChannelEvent:
    """One onchain topology change, effective at ``time``.

    The fault-injection layer (:mod:`repro.sim.faults`) reuses this
    stream for adversarial actions; the extra fields all default to
    no-op values so plain churn events are unchanged:

    * ``force`` — a CLOSE with ``force=True`` models a unilateral
      (breach/expiry) close: it goes through even when escrow is in
      flight, releasing every hold on the channel first;
    * ``fraction`` — for JAM/DRAIN, the share of the currently
      *available* directional balance the adversary grabs;
    * ``tag`` — correlation id linking a JAM to its UNJAM.
    """

    time: float
    kind: ChannelEventType
    a: NodeId
    b: NodeId
    #: Deposits for OPEN events (ignored for CLOSE).
    balance_a: float = 0.0
    balance_b: float = 0.0
    force: bool = False
    fraction: float = 0.0
    tag: str = ""


class ChurnModel:
    """Poisson channel churn over a base graph.

    Opens and closes are two independent Poisson streams, and every
    event of either kind names a node pair drawn uniformly from the base
    graph's nodes — not an existing channel, and not by degree.  An open
    whose pair already has a channel, and a close whose pair has none,
    are refused as no-ops when applied (:class:`GossipSchedule`).  On a
    sparse graph nearly every close is refused that way: a uniform pair
    almost never has a channel, so such churn mostly adds channels.

    Parameters
    ----------
    opens_per_hour, closes_per_hour:
        Event rates; the paper's "hourly or daily scale" corresponds to
        rates well below one per minute for networks of this size.
    capacity:
        Sampler for new channels' total funds (split evenly).
    """

    SECONDS_PER_HOUR = 3_600.0

    def __init__(
        self,
        graph: ChannelGraph,
        rng: random.Random,
        opens_per_hour: float = 1.0,
        closes_per_hour: float = 1.0,
        capacity=None,
    ) -> None:
        if opens_per_hour < 0 or closes_per_hour < 0:
            raise TopologyError("event rates must be non-negative")
        self._graph = graph
        self._rng = rng
        self._opens_per_hour = opens_per_hour
        self._closes_per_hour = closes_per_hour
        self._capacity = capacity if capacity is not None else (lambda r: 200.0)

    def generate(self, duration_seconds: float) -> list[ChannelEvent]:
        """Sample a time-ordered event stream for the given horizon."""
        events: list[ChannelEvent] = []
        events.extend(
            self._poisson_times(self._opens_per_hour, duration_seconds, True)
        )
        events.extend(
            self._poisson_times(self._closes_per_hour, duration_seconds, False)
        )
        events.sort(key=lambda event: event.time)
        return events

    def _poisson_times(
        self, rate_per_hour: float, duration: float, is_open: bool
    ) -> Iterable[ChannelEvent]:
        if rate_per_hour <= 0:
            return []
        events = []
        now = 0.0
        mean_gap = self.SECONDS_PER_HOUR / rate_per_hour
        nodes = self._graph.nodes
        while True:
            now += self._rng.expovariate(1.0 / mean_gap)
            if now >= duration:
                break
            if is_open:
                a, b = self._rng.sample(nodes, 2)
                total = self._capacity(self._rng)
                events.append(
                    ChannelEvent(
                        time=now,
                        kind=ChannelEventType.OPEN,
                        a=a,
                        b=b,
                        balance_a=total / 2.0,
                        balance_b=total / 2.0,
                    )
                )
            else:
                a, b = self._rng.sample(nodes, 2)
                events.append(
                    ChannelEvent(time=now, kind=ChannelEventType.CLOSE, a=a, b=b)
                )
        return events


@dataclass(frozen=True)
class ChurnPreset:
    """A named churn intensity: event rates plus new-channel funding.

    Presets make topology dynamics a one-word scenario ingredient (see
    :data:`CHURN_PRESETS` and the ``repro.scenarios`` catalog) instead of
    a hand-tuned ``ChurnModel`` per experiment.
    """

    name: str
    description: str
    opens_per_hour: float
    closes_per_hour: float
    #: Median total funds of newly opened channels (log-normal, sigma 1.0).
    capacity_median: float = 500.0

    def model(self, graph: ChannelGraph, rng: random.Random) -> ChurnModel:
        """Instantiate the preset as a :class:`ChurnModel` over ``graph``."""
        mu = math.log(self.capacity_median)

        def capacity(r: random.Random) -> float:
            return math.exp(r.gauss(mu, 1.0))

        return ChurnModel(
            graph,
            rng,
            opens_per_hour=self.opens_per_hour,
            closes_per_hour=self.closes_per_hour,
            capacity=capacity,
        )


#: Named churn intensities, calibrated to the paper's "hourly or daily
#: scale" assumption (§3.1): ``calm`` is the paper's stable regime,
#: ``hourly`` matches its stated change cadence, ``volatile`` stresses
#: routing-table refresh well beyond it.
CHURN_PRESETS: dict[str, ChurnPreset] = {
    preset.name: preset
    for preset in (
        ChurnPreset(
            name="calm",
            description="a few changes per day — the paper's stable regime",
            opens_per_hour=0.1,
            closes_per_hour=0.1,
        ),
        ChurnPreset(
            name="hourly",
            description="about one open and one close per hour (§3.1 cadence)",
            opens_per_hour=1.0,
            closes_per_hour=1.0,
        ),
        ChurnPreset(
            name="volatile",
            description="tens of changes per hour — stress for table refresh",
            opens_per_hour=30.0,
            closes_per_hour=30.0,
        ),
    )
}


def churn_events_for(
    graph: ChannelGraph,
    rng: random.Random,
    duration_seconds: float,
    preset: str | ChurnPreset = "hourly",
) -> list[ChannelEvent]:
    """Sample a churn event stream for ``graph`` from a named preset.

    ``preset`` is a :data:`CHURN_PRESETS` key or a :class:`ChurnPreset`;
    the returned events are time-ordered over ``[0, duration_seconds)``
    and ready for :class:`GossipSchedule` /
    :func:`repro.sim.engine.run_simulation`.
    """
    if isinstance(preset, str):
        try:
            preset = CHURN_PRESETS[preset]
        except KeyError:
            known = ", ".join(sorted(CHURN_PRESETS))
            raise TopologyError(
                f"unknown churn preset {preset!r} (known: {known})"
            ) from None
    return preset.model(graph, rng).generate(duration_seconds)


def prune_paths_for_events(cache: dict, events) -> int:
    """Selectively invalidate a ``key -> path(s)`` cache from an event batch.

    Shared by the baseline routers' per-pair path caches.  ``cache``
    values may be a single path (list of node ids), a list of paths, or
    ``None`` (known-unreachable).  With ``events=None`` (a hook called
    without a batch) or any OPEN in the batch, the cache is cleared
    wholesale — a new channel can shorten or create a path between any
    pair.  A close-only batch drops just the entries with a cached path
    crossing a closed channel: surviving paths still exist and are still
    fewest-hop (closing channels cannot shorten anything), and ``None``
    entries stay correct because closes cannot create connectivity.
    Returns the number of entries dropped.
    """
    if not cache:
        return 0
    if events is None or any(
        event.kind is ChannelEventType.OPEN for event in events
    ):
        dropped = len(cache)
        cache.clear()
        return dropped
    closed = {frozenset((event.a, event.b)) for event in events}
    if not closed:
        return 0

    def crosses(path) -> bool:
        return any(
            frozenset((u, v)) in closed for u, v in zip(path, path[1:])
        )

    stale = []
    for key, value in cache.items():
        if value is None or not value:
            continue
        paths = value if isinstance(value[0], list) else [value]
        if any(crosses(path) for path in paths):
            stale.append(key)
    for key in stale:
        del cache[key]
    return len(stale)


@dataclass
class GossipSchedule:
    """Applies channel events and gossips them to routers in batches.

    Events become effective on the graph immediately at their time (the
    chain does not wait; :meth:`apply_due`), but routers only learn
    about them at the next gossip tick — the paper's periodic-gossip
    assumption.  Ticks happen only in :meth:`advance_to`, which the
    engine calls when a payment starts: each gossip calls every
    router's ``on_topology_update(events=batch)`` with the events
    applied since the last tick (refused no-ops excluded), which is
    what enables selective cache invalidation
    (:meth:`repro.core.routing_table.RoutingTable.apply_events`).

    The graph's ``fee_controller``, if any, reprices once per period on
    its own clock, at the same ticks: a tick that changes no rate
    gossips nothing, and the next tick is still a full period later.
    """

    graph: ChannelGraph
    events: Sequence[ChannelEvent]
    gossip_period: float = 600.0
    _cursor: int = 0
    _pending_gossip: bool = False
    _last_gossip: float = 0.0
    _last_reprice: float = 0.0
    routers: list = field(default_factory=list)
    #: Events applied since the last gossip tick — the batch handed to
    #: the router hooks, then cleared.
    _batch: list[ChannelEvent] = field(default_factory=list)
    #: Optional engine adapter with a ``force_close(a, b)`` method,
    #: called before a ``force=True`` CLOSE removes the channel so the
    #: engine can release (not strand) any payment holds in flight there.
    hold_owner: object | None = None
    #: Time-integral of adversary-held escrow (fund-seconds), accrued as
    #: jam holds are released; the ``adversary_escrow`` resilience metric.
    adversary_escrow_seconds: float = 0.0
    #: Live jam holds per tag: ``(src, dst, amount, placed_at)`` tuples.
    _jam_holds: dict = field(default_factory=dict)

    def register(self, router) -> None:
        """Routers get ``on_topology_update(events=batch)`` at gossip ticks."""
        self.routers.append(router)

    def apply_due(self, now: float) -> int:
        """Apply all events due by ``now``, without a gossip tick.

        Returns the number of events applied.
        """
        applied = 0
        while self._cursor < len(self.events) and self.events[self._cursor].time <= now:
            event = self.events[self._cursor]
            if self._apply(event):
                applied += 1
                self._pending_gossip = True
                self._batch.append(event)
            self._cursor += 1
        return applied

    def advance_to(self, now: float) -> int:
        """Apply all events due by ``now``; reprice and gossip if due.

        Returns the number of events applied.
        """
        applied = self.apply_due(now)
        if now - self._last_reprice >= self.gossip_period:
            # Fee repricing is channel_update gossip: a controller tick
            # happens on the gossip cadence even when the churn stream
            # is empty (the fee-market scenarios have no churn at all),
            # and a repricing alone is reason to gossip.
            self._last_reprice = now
            controller = getattr(self.graph, "fee_controller", None)
            if controller is not None and controller.update(self.graph, now):
                self._pending_gossip = True
        if self._pending_gossip and now - self._last_gossip >= self.gossip_period:
            self._gossip(now)
        return applied

    def _gossip(self, now: float) -> None:
        batch = tuple(self._batch)
        for router in self.routers:
            router.on_topology_update(events=batch)
        self._batch.clear()
        self._pending_gossip = False
        self._last_gossip = now

    def _apply(self, event: ChannelEvent) -> bool:
        if event.kind is ChannelEventType.OPEN:
            if event.a == event.b or self.graph.has_channel(event.a, event.b):
                return False
            self.graph.add_channel(
                event.a, event.b, event.balance_a, event.balance_b
            )
            return True
        if event.kind is ChannelEventType.JAM:
            self._apply_jam(event)
            return False  # balance-level only: not gossiped, not batched
        if event.kind is ChannelEventType.UNJAM:
            self._release_jams(event.tag, event.time)
            return False
        if event.kind is ChannelEventType.DRAIN:
            self._apply_drain(event)
            return False
        if not self.graph.has_channel(event.a, event.b):
            return False
        if event.force:
            # A unilateral (breach/expiry) close goes through regardless
            # of in-flight escrow.  Release order matters: the engine's
            # payment holds first (hold_owner), then any adversary jam
            # holds, then a defensive sweep of whatever remains — only
            # then is the channel actually removed, so nothing strands.
            if self.hold_owner is not None:
                self.hold_owner.force_close(event.a, event.b)
            self._release_jams_on(event.a, event.b, event.time)
            channel = self.graph.channel(event.a, event.b)
            for src, dst in (
                (channel.a, channel.b),
                (channel.b, channel.a),
            ):
                residue = channel.held(src, dst)
                if residue > 0:
                    channel.release_hold(src, dst, residue)
            self.graph.remove_channel(event.a, event.b)
            return True
        if (
            self.graph.held(event.a, event.b) > 0
            or self.graph.held(event.b, event.a) > 0
        ):
            # A channel with in-flight escrow cannot cooperatively close
            # (pending HTLCs pin it open); dropping the event keeps the
            # engine's settle/release events valid and conserves the
            # escrowed funds.  At zero contention (the sequential
            # engine) only the parts of a multi-part payment waiting
            # on a sibling's retry are in flight between payments.
            return False
        self.graph.remove_channel(event.a, event.b)
        return True

    # ------------------------------------------------- adversarial events

    def _apply_jam(self, event: ChannelEvent) -> None:
        """Escrow ``fraction`` of each direction's available balance.

        The holds are recorded under the event's ``tag`` and stay in
        place until the matching UNJAM (or :meth:`finalize`), occupying
        capacity every probe and payment sees — the jamming attack.
        Missing channels (e.g. closed by interleaved churn) are no-ops.
        """
        if not self.graph.has_channel(event.a, event.b):
            return
        channel = self.graph.channel(event.a, event.b)
        holds = self._jam_holds.setdefault(event.tag, [])
        for src, dst in ((channel.a, channel.b), (channel.b, channel.a)):
            amount = event.fraction * channel.balance(src, dst)
            if amount > 0 and channel.hold(src, dst, amount):
                holds.append((src, dst, amount, event.time))

    def _apply_drain(self, event: ChannelEvent) -> None:
        """Shift ``fraction`` of the a->b available balance to b's side.

        Models a colluding-sender flood that unbalances a hot channel:
        total channel funds are conserved, but the drained direction
        loses sending capacity.  Missing channels are no-ops.
        """
        if not self.graph.has_channel(event.a, event.b):
            return
        channel = self.graph.channel(event.a, event.b)
        amount = event.fraction * channel.balance(event.a, event.b)
        if amount > 0:
            channel.transfer(event.a, event.b, amount)

    def _release_jams(self, tag: str, now: float) -> None:
        """Release every live jam hold under ``tag``, accruing escrow time."""
        for src, dst, amount, placed_at in self._jam_holds.pop(tag, ()):
            self.adversary_escrow_seconds += amount * max(0.0, now - placed_at)
            if self.graph.has_channel(src, dst):
                self.graph.release_hold(src, dst, amount)

    def _release_jams_on(self, a: NodeId, b: NodeId, now: float) -> None:
        """Release jam holds pinned to one channel (it is force-closing)."""
        pair = frozenset((a, b))
        for tag, holds in self._jam_holds.items():
            kept = []
            for src, dst, amount, placed_at in holds:
                if frozenset((src, dst)) == pair:
                    self.adversary_escrow_seconds += amount * max(
                        0.0, now - placed_at
                    )
                    self.graph.release_hold(src, dst, amount)
                else:
                    kept.append((src, dst, amount, placed_at))
            self._jam_holds[tag] = kept

    def finalize(self, now: float) -> None:
        """Release any jam holds still live at simulation end.

        Keeps the end-of-run escrow-drained invariant: every adversary
        hold is accounted (its escrow time accrued) and returned, so
        ``graph.total_held()`` goes back to zero.
        """
        for tag in list(self._jam_holds):
            self._release_jams(tag, now)


def merge_event_streams(
    events: Sequence[ChannelEvent] | None,
    fault_events: Sequence[ChannelEvent] | None,
) -> list[ChannelEvent]:
    """Interleave churn and fault events into one time-ordered stream.

    The sort is stable and churn is listed first, so at equal timestamps
    organic topology changes apply before adversarial actions — the
    fixed precedence both engines share for determinism.
    """
    merged = [*(events or ()), *(fault_events or ())]
    merged.sort(key=lambda event: event.time)
    return merged


def run_dynamic_simulation(graph, router_factory, workload, events, **kwargs):
    """:func:`repro.sim.engine.run_simulation` with channel ``events``.

    Kept for its signature, which puts the event stream fourth; every
    keyword means what it does there.
    """
    from repro.sim.engine import run_simulation

    return run_simulation(
        graph, router_factory, workload, events=events, **kwargs
    )
