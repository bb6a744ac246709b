"""The discrete-event concurrent payment engine (in-flight holds, timeouts).

:func:`repro.sim.engine.run_simulation` feeds payments to the router one
at a time and ignores ``Transaction.time`` entirely, so concurrent
payments never contend for channel balance.  This module provides the
second engine: payments *start* at their workload time on a shared
:class:`~repro.protocol.events.EventQueue`, place HTLC-style **holds**
on every hop of every partial path (the hold-then-settle lifecycle of
the BOLT specifications), and only **settle** — converting holds into
balance transfers — after a per-hop latency round trip.  While a payment
is in flight its holds reduce the *available* balance every other
payment (and every probe) sees, because
:meth:`repro.network.channel.Channel.balance` is defined net of holds.
That makes contention, retry behaviour, and latency measurable.

Lifecycle of one payment (see ``docs/CONCURRENCY.md`` for the full
model):

1. **start** — at ``transaction.time / load`` the router plans and
   reserves the payment.  Probes are instantaneous; reservations go
   through :class:`ConcurrentNetworkView`, which places holds instead of
   settling (both ``try_execute`` and payment sessions).
2. **settle** — a successful reservation over paths with at most ``h``
   hops completes ``2 * hop_latency * h`` later (forward lock pass +
   reverse settle pass); the holds become transfers and the payment is
   recorded with its latency.
3. **timeout** — if the settle delay would exceed ``timeout``, the
   payment instead fails ``timeout`` seconds after its holds were
   placed (the reservation instant — which follows any retry waits,
   exactly like an HTLC's expiry counts from when it is offered): every
   hold is released and the record is marked ``timed_out``.  Timeouts
   are structural (the chosen paths are too long for the timeout), so
   they are not retried.
4. **retry** — a reservation that fails outright (no capacity) is
   retried ``retry_delay`` later, up to ``max_retries`` times; earlier
   payments may have settled in between, freeing capacity.  Opt-in
   ``retry_backoff`` grows the wait geometrically per attempt and
   ``retry_jitter`` adds deterministic seeded jitter; at their defaults
   the wait is the fixed ``retry_delay`` of the original engine,
   byte-identical.

Adversarial faults (:mod:`repro.sim.faults`) ride the same event
queue: a compiled :class:`~repro.sim.faults.FaultPlan` merges its
JAM/UNJAM/DRAIN/force-CLOSE events into the churn stream, and an
engine-side escrow registry releases the in-flight holds of any
payment crossing a force-closed channel (the payment then fails at its
settle time instead of stranding escrow — see ``docs/RESILIENCE.md``).

Determinism: the engine is a pure function of ``(graph, workload,
events, config, rng)``.  Events are ordered by ``(time, sequence)``
(the :class:`~repro.protocol.events.EventQueue` tie-break), and sequence
numbers are assigned in a fixed order — churn events first, then
payment starts in workload order, then the follow-up events each action
schedules — so two runs with the same seed produce identical
:class:`~repro.sim.metrics.SimulationResult` records, including across
``workers=N`` fork parallelism.

The sequential engine remains the default everywhere and is untouched by
this module; ``engine="sequential"`` results are byte-identical to the
pre-concurrent engine's output for the same seed.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, replace

from repro.errors import InsufficientBalanceError, NoChannelError, ProtocolError
from repro.network.channel import NodeId
from repro.network.dynamics import (
    ChannelEvent,
    GossipSchedule,
    merge_event_streams,
)
from repro.sim.faults import FaultPlan, resilience_metrics
from repro.network.graph import ChannelGraph
from repro.network.view import NetworkView, PaymentSession
from repro.protocol.events import EventQueue
from repro.core.classifier import MiceThreshold
from repro.sim.engine import accrue_revenue
from repro.sim.metrics import (
    SimulationResult,
    StreamingMetricsAccumulator,
    StreamingSimulationResult,
    TransactionRecord,
    fee_metrics,
    mpp_metrics,
)
from repro.sim.mpp import MppConfig, split_amounts
from repro.traces.workload import Transaction, Workload, WorkloadStream

#: One held hop: escrowed ``amount`` in the ``src -> dst`` direction.
HeldHop = tuple[NodeId, NodeId, float]


@dataclass(frozen=True)
class ConcurrencyConfig:
    """The knobs of the concurrent engine (all simulated-time seconds).

    ``load`` uniformly compresses the input trace: every workload and
    churn timestamp (and the gossip period) is divided by it, while
    ``hop_latency``/``timeout``/``retry_delay`` stay in wall-clock
    seconds — so ``load=100`` offers 100x the paper's arrival rate
    against unchanged hold durations.  ``timeout`` caps how long a
    payment's holds may stay in flight before they are released;
    ``max_retries`` bounds engine-level re-attempts of reservations that
    failed for lack of capacity.

    The wait before attempt ``k`` (1-based retries) is
    ``retry_delay * retry_backoff**(k-1)``, stretched by a further
    uniform factor in ``[1, 1 + retry_jitter]`` drawn from a dedicated
    seeded stream when ``retry_jitter > 0``.  At the defaults
    (``retry_backoff=1.0``, ``retry_jitter=0.0``) the wait is exactly
    the fixed ``retry_delay`` — byte-identical to the pre-backoff
    engine — and the knobs are omitted from :meth:`to_params` so
    existing store cells keep their digests.
    """

    hop_latency: float = 0.1
    timeout: float = 5.0
    load: float = 1.0
    max_retries: int = 1
    retry_delay: float = 1.0
    gossip_period: float = 600.0
    retry_backoff: float = 1.0
    retry_jitter: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ValueError` on out-of-range knob values."""
        if self.hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {self.hop_latency}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.load <= 0:
            raise ValueError(f"load must be positive, got {self.load}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_delay < 0:
            raise ValueError(
                f"retry_delay must be >= 0, got {self.retry_delay}"
            )
        if self.gossip_period <= 0:
            raise ValueError(
                f"gossip_period must be positive, got {self.gossip_period}"
            )
        if self.retry_backoff < 1.0:
            raise ValueError(
                f"retry_backoff must be >= 1, got {self.retry_backoff}"
            )
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError(
                f"retry_jitter must be in [0, 1], got {self.retry_jitter}"
            )

    @classmethod
    def from_params(
        cls, params: Mapping[str, object] | None = None
    ) -> "ConcurrencyConfig":
        """Build from a knob mapping; unknown keys and bad values raise.

        This is the single coercion point for engine parameters coming
        from scenario registrations, CLI flags, and store cell keys.
        """
        known = {spec.name: spec.type for spec in fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in dict(params or {}).items():
            if key not in known:
                names = ", ".join(sorted(known))
                raise ValueError(
                    f"unknown concurrency parameter {key!r} (known: {names})"
                )
            kwargs[key] = int(value) if key == "max_retries" else float(value)
        config = cls(**kwargs)
        config.validate()
        return config

    def to_params(self) -> dict[str, object]:
        """Every knob as a plain dict — the store cell-key representation.

        Always fully resolved (defaults included), so an explicitly
        passed default value and an omitted knob hash identically.  The
        one exception: the backoff knobs added after the store format
        shipped (``retry_backoff``, ``retry_jitter``) are *omitted* at
        their default values, so pre-backoff store cells keep their
        digests and resume unchanged.
        """
        params = {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }
        if params["retry_backoff"] == 1.0:
            del params["retry_backoff"]
        if params["retry_jitter"] == 0.0:
            del params["retry_jitter"]
        return params


class HoldLedger:
    """Collects the holds one ``router.route`` call places.

    The engine brackets every route attempt with :meth:`begin` /
    :meth:`collect`; the :class:`ConcurrentNetworkView` execution
    primitives deposit their held hops (and the paths they belong to)
    here instead of settling them, handing ownership of the in-flight
    escrow to the engine's settle/timeout events.
    """

    def __init__(self) -> None:
        self._active = False
        self._holds: list[HeldHop] = []
        self._transfers: list[tuple[tuple[NodeId, ...], float]] = []

    def begin(self) -> None:
        """Open collection for one route attempt."""
        self._active = True
        self._holds = []
        self._transfers = []

    def add(
        self,
        holds: Sequence[HeldHop],
        transfers: Sequence[tuple[tuple[NodeId, ...], float]],
    ) -> None:
        """Register committed holds (called by the deferring view)."""
        if not self._active:
            raise ProtocolError(
                "payment executed outside an engine-managed route attempt"
            )
        self._holds.extend(holds)
        self._transfers.extend(transfers)

    def collect(
        self,
    ) -> tuple[list[HeldHop], list[tuple[tuple[NodeId, ...], float]]]:
        """Close collection and return ``(holds, transfers)``."""
        self._active = False
        holds, transfers = self._holds, self._transfers
        self._holds, self._transfers = [], []
        return holds, transfers


class DeferredPaymentSession(PaymentSession):
    """A payment session whose commit defers settlement to the engine.

    Reservation (:meth:`~repro.network.view.PaymentSession.try_reserve`)
    and abort behave exactly like the sequential session — holds are
    placed and released immediately, and every message is counted the
    same way.  Only :meth:`commit` differs: instead of settling the
    staged holds it hands them to the :class:`HoldLedger`, leaving the
    escrow in place until the engine's settle (or timeout) event fires.
    """

    def __init__(self, graph, counters, ledger: HoldLedger) -> None:
        super().__init__(graph, counters)
        self._ledger = ledger

    def commit(self) -> None:
        """Hand the staged holds to the engine instead of settling them.

        The commit messages are counted here (the CONFIRM pass happens
        now); the later settle event moves balances without re-counting.
        """
        self._check_open()
        self._closed = True
        self._ledger.add(
            [(hop.src, hop.dst, hop.amount) for hop in self._staged],
            list(self._transfers),
        )
        self._counters.payment_messages += len(self._staged)


class ConcurrentNetworkView(NetworkView):
    """A :class:`~repro.network.view.NetworkView` that holds, never settles.

    Probing is inherited unchanged — and because
    :meth:`repro.network.channel.Channel.balance` is net of holds, every
    probe (and therefore every routing decision of all five schemes)
    automatically sees ``available = balance - in_flight``.  The two
    execution primitives are overridden to escrow instead of settle:

    * :meth:`try_execute` places per-hop holds, all-or-nothing (no
      cross-direction netting: HTLC escrow locks both directions, which
      is strictly more conservative than the sequential engine's netted
      :meth:`~repro.network.graph.ChannelGraph.execute`);
    * :meth:`open_session` returns a :class:`DeferredPaymentSession`.
    """

    def __init__(self, graph: ChannelGraph, ledger: HoldLedger) -> None:
        super().__init__(graph)
        self._ledger = ledger

    def try_execute(
        self, transfers: list[tuple[tuple[NodeId, ...], float]]
    ) -> bool:
        """Escrow a multi-path payment hop by hop; all-or-nothing.

        Costs one payment message per hop reached (a failed attempt
        still pays for the hops traversed before bouncing, matching the
        session primitive's accounting).
        """
        placed: list[HeldHop] = []
        self.counters.payment_attempts += 1
        policy_aware = self._graph.policy_aware
        for path, amount in transfers:
            # BOLT escrow: each hop locks the delivered amount plus all
            # downstream fees (no-op list of equal amounts without
            # policies — byte-identical to the pre-policy engine).
            hop_amounts = (
                self._graph.path_hop_amounts(list(path), amount)
                if policy_aware
                else None
            )
            for index, (u, v) in enumerate(zip(path, path[1:])):
                self.counters.payment_messages += 1
                hop_amount = (
                    amount if hop_amounts is None else hop_amounts[index]
                )
                try:
                    self._graph.hold(u, v, hop_amount)
                except (InsufficientBalanceError, NoChannelError):
                    for uu, vv, held in reversed(placed):
                        self._graph.release_hold(uu, vv, held)
                    return False
                placed.append((u, v, hop_amount))
        self._ledger.add(
            placed, [(tuple(path), amount) for path, amount in transfers]
        )
        return True

    def open_session(self) -> DeferredPaymentSession:
        """Start a payment session whose commit defers to the engine."""
        return DeferredPaymentSession(self._graph, self.counters, self._ledger)


@dataclass
class _PendingPayment:
    """Engine-side state of one payment across its attempts."""

    transaction: Transaction
    started_at: float
    attempts: int = 0
    probe_messages: int = 0
    payment_messages: int = 0


@dataclass
class _InFlight:
    """One payment's escrow between reservation and settle/expire.

    ``holds`` shrinks when a force-close releases the closed pair's
    hops; ``disrupted`` marks the payment as doomed — its settle event
    releases the surviving holds and records a failure instead of
    settling a broken path.
    """

    pending: _PendingPayment
    holds: list[HeldHop]
    disrupted: bool = False
    #: Per-node fee revenue of this payment, priced at reservation time
    #: (the policies the escrow was sized under — a fee-controller tick
    #: between reserve and settle must not reprice in-flight holds).
    revenue: dict = field(default_factory=dict)
    #: MPP part index (-1 for whole payments): parts share their
    #: parent's txid, so the registry keys escrow by ``(txid, part)``.
    part: int = -1


@dataclass
class _MppPayment:
    """Coordinator state for one multi-part payment.

    ``flights`` maps part index -> reserved escrow; ``ready_at`` the
    simulated time each part's settle pass could complete.  ``done``
    latches once the payment settled or aborted, so late events (the
    deadline, a straggler retry) become no-ops.
    """

    pending: _PendingPayment
    amounts: list[float]
    deadline_at: float
    flights: dict[int, _InFlight] = field(default_factory=dict)
    ready_at: dict[int, float] = field(default_factory=dict)
    part_attempts: dict[int, int] = field(default_factory=dict)
    fee_total: float = 0.0
    transfers: list = field(default_factory=list)
    done: bool = False


class _EscrowRegistry:
    """Engine-side index of in-flight escrow, keyed by channel pair.

    Registered as the :class:`~repro.network.dynamics.GossipSchedule`'s
    ``hold_owner``: when a fault force-closes a channel mid-flight, the
    schedule calls :meth:`force_close` and the registry releases every
    affected payment's holds on that pair (in deterministic txid order)
    and marks the payments disrupted, so escrow is never stranded on a
    removed channel and conservation invariants hold.
    """

    def __init__(self, graph: ChannelGraph) -> None:
        self._graph = graph
        self._flights: dict[tuple[int, int], _InFlight] = {}
        self._by_pair: dict[frozenset, set[tuple[int, int]]] = {}

    @staticmethod
    def _key(flight: _InFlight) -> tuple[int, int]:
        """Registry key: MPP parts share a txid but escrow separately."""
        return (flight.pending.transaction.txid, flight.part)

    def register(self, flight: _InFlight) -> None:
        """Track a freshly reserved payment's holds."""
        key = self._key(flight)
        self._flights[key] = flight
        for u, v, _ in flight.holds:
            self._by_pair.setdefault(frozenset((u, v)), set()).add(key)

    def unregister(self, flight: _InFlight) -> None:
        """Drop a settled/expired payment from the index."""
        key = self._key(flight)
        self._flights.pop(key, None)
        for u, v, _ in flight.holds:
            pair = frozenset((u, v))
            members = self._by_pair.get(pair)
            if members is not None:
                members.discard(key)
                if not members:
                    del self._by_pair[pair]

    def force_close(self, a: NodeId, b: NodeId) -> None:
        """Release every in-flight hold on ``(a, b)``; doom those payments."""
        pair = frozenset((a, b))
        for key in sorted(self._by_pair.pop(pair, ())):
            flight = self._flights.get(key)
            if flight is None:
                continue
            kept: list[HeldHop] = []
            for u, v, amount in flight.holds:
                if frozenset((u, v)) == pair:
                    self._graph.release_hold(u, v, amount)
                else:
                    kept.append((u, v, amount))
            flight.holds = kept
            flight.disrupted = True


def _max_hops(transfers: Sequence[tuple[tuple[NodeId, ...], float]]) -> int:
    """The longest partial-payment path, in hops (0 for no transfers)."""
    return max((len(path) - 1 for path, _ in transfers), default=0)


def run_concurrent_simulation(
    graph: ChannelGraph,
    router_factory,
    workload: Workload | WorkloadStream,
    rng: random.Random | None = None,
    config: ConcurrencyConfig | None = None,
    events: Sequence[ChannelEvent] | None = None,
    reference_mice_fraction: float = 0.9,
    copy_graph: bool = True,
    faults: FaultPlan | None = None,
    mpp: MppConfig | None = None,
    lookahead: int = 256,
    progress=None,
) -> SimulationResult | StreamingSimulationResult:
    """Route ``workload`` with overlapping in-flight payments; returns metrics.

    Same contract as :func:`repro.sim.engine.run_simulation` — fresh
    router over a (by default) copied graph, one
    :class:`~repro.sim.metrics.TransactionRecord` per transaction in
    workload order — plus the concurrent semantics documented in the
    module docstring.  ``events`` (channel churn) are applied at their
    compressed timestamps and gossiped on the compressed period, exactly
    mirroring :func:`~repro.sim.engine.run_simulation`'s ordering
    (events due at a payment's start apply before it routes).

    The returned result has ``engine="concurrent"``, which adds the
    latency/retry/timeout metrics to its stored record (see
    :data:`repro.sim.metrics.CONCURRENT_METRIC_FIELDS`).  When a
    compiled ``faults`` plan is passed, its adversarial events are
    merged into the (compressed) churn stream, force-closed channels
    release their in-flight escrow through the engine's registry, and
    ``result.resilience`` carries
    :data:`repro.sim.metrics.RESILIENCE_METRIC_FIELDS` — with the
    adversary-escrow integral converted back to uncompressed trace
    seconds, so the metric is comparable across ``load`` settings.

    ``mpp`` (an :class:`~repro.sim.mpp.MppConfig`) enables multi-part
    payments: qualifying payments fan out at their start instant into
    parts that route and escrow independently, retry per-part
    (``part_retries`` / ``part_retry_delay``), and settle
    **all-or-nothing** at one instant — when the last part is escrowed,
    a joint settle is scheduled at the slowest part's settle-ready time;
    a part exhausting its retries (or a force-close disrupting a part)
    releases every sibling hold immediately, and the shared ``deadline``
    aborts anything still unsettled ``deadline`` seconds after the
    payment started (ties at the deadline instant abort — the deadline
    event is scheduled first, so the queue's sequence tie-break fires it
    before any same-time settle).  ``result.mpp`` then carries
    :data:`repro.sim.metrics.MPP_METRIC_FIELDS`.  With ``mpp=None``
    (the default) the engine is byte-identical to the pre-MPP engine.

    A :class:`~repro.traces.workload.WorkloadStream` input switches to
    the **single-pass** path: instead of pre-scheduling every payment
    start upfront, the engine bootstraps ``lookahead`` transactions onto
    the queue and pulls one more from the stream at each payment start,
    so at most ``lookahead`` un-started transactions (plus the in-flight
    window) are ever resident.  Finished records flow into a
    :class:`~repro.sim.metrics.StreamingMetricsAccumulator` (no records
    dict, no ordered second pass) and the event budget grows
    incrementally with the fed count.  ``progress`` (a callable taking
    the fed transaction count) fires every 10,000 feeds and once at the
    end — checkpoint/throughput hooks for trace-scale runs.  Streaming
    is incompatible with ``faults`` (resilience metrics need the full
    ordered record list) and raises rather than approximating.  One
    caveat versus a materialized run of the same trace: payment starts
    are enqueued lazily, so their queue sequence numbers interleave with
    settle/retry events — at *identical* timestamps the tie-break order
    can differ from the list path; with distinct timestamps (generic
    continuous arrival times) results match the list path's headline
    metrics exactly.
    """
    config = config if config is not None else ConcurrencyConfig()
    config.validate()
    streaming = isinstance(workload, WorkloadStream)
    if streaming and faults is not None:
        raise ValueError(
            "streaming workloads cannot run with a fault plan: resilience "
            "metrics need the full ordered record list; materialize() the "
            "stream instead"
        )
    if lookahead <= 0:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    working_graph = graph.copy() if copy_graph else graph
    run_rng = rng if rng is not None else random.Random(0)
    queue = EventQueue()
    ledger = HoldLedger()
    view = ConcurrentNetworkView(working_graph, ledger)
    # A dedicated jitter stream, split off *before* router construction
    # so jitter-free runs never touch run_rng and stay byte-identical.
    jitter_rng = (
        random.Random(run_rng.getrandbits(64))
        if config.retry_jitter > 0
        else None
    )
    router = router_factory(view, workload, run_rng)
    threshold = MiceThreshold(workload, reference_mice_fraction)
    if mpp is not None:
        mpp.validate()
    # MPP-free runs record parts=0 (the pre-MPP record defaults);
    # MPP-enabled runs record parts=1 for payments that did not split.
    default_parts = 0 if mpp is None else 1
    registry = _EscrowRegistry(working_graph)
    policy_aware = working_graph.policy_aware
    revenue_by_node: dict[NodeId, float] = {}

    scaled_churn: list[ChannelEvent] = [
        replace(event, time=event.time / config.load) for event in (events or ())
    ]
    scaled_faults: list[ChannelEvent] = [
        replace(event, time=event.time / config.load)
        for event in (faults.events if faults is not None else ())
    ]
    scaled_events = merge_event_streams(scaled_churn, scaled_faults)
    schedule = GossipSchedule(
        graph=working_graph,
        events=scaled_events,
        gossip_period=config.gossip_period / config.load,
        hold_owner=registry,
    )
    schedule.register(router)

    records: dict[int, TransactionRecord] = {}
    if streaming:
        accumulator = StreamingMetricsAccumulator(
            scheme=router.name,
            engine="concurrent",
            track_fees=policy_aware,
            track_mpp=mpp is not None,
        )
        emit = accumulator.observe
    else:
        accumulator = None

        def emit(finished: TransactionRecord) -> None:
            records[finished.txid] = finished

    def record(
        pending: _PendingPayment,
        success: bool,
        fee: float,
        paths_used: int,
        timed_out: bool,
        parts: int | None = None,
        partial_releases: int = 0,
        attempts_base: int = 1,
    ) -> None:
        transaction = pending.transaction
        emit(
            TransactionRecord(
                txid=transaction.txid,
                amount=transaction.amount,
                success=success,
                fee=fee,
                is_elephant=transaction.amount >= threshold.value,
                probe_messages=pending.probe_messages,
                payment_messages=pending.payment_messages,
                paths_used=paths_used,
                latency=queue.now - pending.started_at,
                retries=max(0, pending.attempts - attempts_base),
                timed_out=timed_out,
                parts=default_parts if parts is None else parts,
                partial_releases=partial_releases,
            )
        )

    def release(flight: _InFlight) -> None:
        """Refund one flight's escrow, in reverse placement order."""
        registry.unregister(flight)
        for u, v, amount in reversed(flight.holds):
            working_graph.release_hold(u, v, amount)

    def commit(flight: _InFlight) -> None:
        """Settle one flight's escrow and book its fee revenue."""
        registry.unregister(flight)
        for u, v, amount in flight.holds:
            working_graph.settle_hold(u, v, amount)
        for node, earned in flight.revenue.items():
            revenue_by_node[node] = revenue_by_node.get(node, 0.0) + earned

    def settle(flight: _InFlight, outcome) -> None:
        # A channel on the path may have been force-closed mid-flight:
        # the surviving escrow then unwinds and the payment fails cleanly.
        if flight.disrupted:
            release(flight)
        else:
            commit(flight)
        record(
            flight.pending,
            success=not flight.disrupted,
            fee=0.0 if flight.disrupted else outcome.fee,
            paths_used=len(outcome.transfers),
            timed_out=False,
        )

    def expire(flight: _InFlight, outcome) -> None:
        release(flight)
        record(
            flight.pending,
            success=False,
            fee=0.0,
            paths_used=len(outcome.transfers),
            timed_out=True,
        )

    def reserve(pending: _PendingPayment, transaction, part: int = -1):
        """Route one attempt and escrow it as a registered flight.

        Churn due by now applies before the payment routes, mirroring
        the sequential engine's interleaving.  Returns ``(outcome,
        transfers, flight)``; ``flight`` is None when the route failed.
        """
        schedule.advance_to(queue.now)
        probes_before = view.counters.probe_messages
        payments_before = view.counters.payment_messages
        ledger.begin()
        outcome = router.route(transaction)
        holds, transfers = ledger.collect()
        pending.attempts += 1
        pending.probe_messages += view.counters.probe_messages - probes_before
        pending.payment_messages += (
            view.counters.payment_messages - payments_before
        )
        if not outcome.success:
            # Defensive: a failed route must not leave escrow behind.
            for u, v, amount in reversed(holds):
                working_graph.release_hold(u, v, amount)
            return outcome, [], None
        transfers = transfers or list(outcome.transfers)
        flight = _InFlight(pending=pending, holds=holds, part=part)
        if policy_aware:
            accrue_revenue(working_graph, transfers, flight.revenue)
        registry.register(flight)
        return outcome, transfers, flight

    def attempt(pending: _PendingPayment) -> None:
        outcome, transfers, flight = reserve(pending, pending.transaction)
        if flight is not None:
            # The lock pass reaches the receiver after hop_latency per
            # hop of the longest path; the settle pass walks back.
            settle_delay = 2.0 * config.hop_latency * _max_hops(transfers)
            if settle_delay > config.timeout:
                queue.schedule(config.timeout, lambda: expire(flight, outcome))
            else:
                queue.schedule(settle_delay, lambda: settle(flight, outcome))
            return
        if pending.attempts <= config.max_retries:
            delay = config.retry_delay
            if config.retry_backoff != 1.0:
                delay *= config.retry_backoff ** (pending.attempts - 1)
            if jitter_rng is not None:
                delay *= 1.0 + config.retry_jitter * jitter_rng.random()
            queue.schedule(delay, lambda: attempt(pending))
            return
        record(
            pending,
            success=False,
            fee=0.0,
            paths_used=0,
            timed_out=False,
        )

    # ------------------------------------------- multi-part coordination

    def mpp_abort(state: "_MppPayment", timed_out: bool) -> None:
        """Refund every reserved sibling part's escrow; fail the payment."""
        if state.done:
            return
        state.done = True
        for index in sorted(state.flights):
            release(state.flights[index])
        record(
            state.pending,
            success=False,
            fee=0.0,
            paths_used=0,
            timed_out=timed_out,
            parts=len(state.amounts),
            partial_releases=len(state.flights),
            attempts_base=len(state.amounts),
        )

    def mpp_settle(state: "_MppPayment") -> None:
        """Settle every part's escrow at one instant — or none of it."""
        if state.done:
            return
        if any(flight.disrupted for flight in state.flights.values()):
            # A force-close broke a part mid-flight: the all-or-nothing
            # contract refunds every surviving sibling hold instead.
            mpp_abort(state, timed_out=False)
            return
        state.done = True
        for index in sorted(state.flights):
            commit(state.flights[index])
        record(
            state.pending,
            success=True,
            fee=state.fee_total,
            paths_used=len(state.transfers),
            timed_out=False,
            parts=len(state.amounts),
            partial_releases=0,
            attempts_base=len(state.amounts),
        )

    def attempt_part(state: "_MppPayment", index: int) -> None:
        if state.done:
            return
        transaction = state.pending.transaction
        part_amount = state.amounts[index]
        part_tx = (
            transaction
            if part_amount == transaction.amount
            else replace(transaction, amount=part_amount)
        )
        outcome, part_transfers, flight = reserve(
            state.pending, part_tx, part=index
        )
        state.part_attempts[index] = state.part_attempts.get(index, 0) + 1
        if flight is not None:
            state.flights[index] = flight
            state.fee_total += outcome.fee
            state.transfers.extend(part_transfers)
            state.ready_at[index] = queue.now + 2.0 * config.hop_latency * (
                _max_hops(part_transfers)
            )
            if len(state.flights) == len(state.amounts):
                settle_at = max(state.ready_at.values())
                if settle_at > state.deadline_at:
                    # The slowest part cannot be settle-ready before the
                    # shared deadline; the deadline event will refund
                    # everything (timed_out), like a structural timeout.
                    return
                queue.schedule(
                    settle_at - queue.now, lambda: mpp_settle(state)
                )
            return
        if (
            state.part_attempts[index] <= mpp.part_retries
            and queue.now + mpp.part_retry_delay <= state.deadline_at
        ):
            queue.schedule(
                mpp.part_retry_delay,
                lambda: attempt_part(state, index),
            )
            return
        # A part exhausted its retries: release every sibling hold NOW,
        # well before the deadline — the all-or-nothing abort.
        mpp_abort(state, timed_out=False)

    def start(pending: _PendingPayment) -> None:
        """Dispatch one payment: single-shot, or MPP fan-out."""
        if mpp is None:
            attempt(pending)
            return
        schedule.advance_to(queue.now)
        amounts = split_amounts(
            mpp,
            pending.transaction.amount,
            threshold.value,
            graph=working_graph,
            sender=pending.transaction.sender,
        )
        if len(amounts) == 1:
            attempt(pending)
            return
        state = _MppPayment(
            pending=pending,
            amounts=amounts,
            deadline_at=queue.now + mpp.deadline,
        )
        queue.schedule(mpp.deadline, lambda: mpp_abort(state, timed_out=True))
        # Parts attempt inline at the start instant in index order (the
        # deterministic fan-out); retries re-enter via the queue.
        for index in range(len(amounts)):
            attempt_part(state, index)

    # Churn events are scheduled before payment starts so that at equal
    # timestamps the sequence tie-break applies the topology change
    # first — the same order run_simulation guarantees.
    for event in scaled_events:
        queue.schedule(event.time, lambda: schedule.advance_to(queue.now))

    # Every payment contributes at most (1 + max_retries) attempts plus
    # one settle/timeout event; with MPP each payment may additionally
    # fan out into parts with their own retries, one joint settle, and
    # one deadline event.  Anything beyond the bound is a bug.
    per_payment = config.max_retries + 2
    if mpp is not None:
        per_payment += mpp.max_parts * (mpp.part_retries + 2) + 2

    if streaming:
        stream_iterator = iter(workload)
        fed = 0

        def feed_one() -> None:
            """Pull the next transaction (if any) onto the event queue.

            The stream is time-ordered and feeds happen at payment-start
            instants, so the computed delay is never negative; the
            ``max`` is purely defensive against a mis-ordered stream.
            """
            nonlocal fed
            transaction = next(stream_iterator, None)
            if transaction is None:
                return
            threshold.observe(transaction.amount)
            start_at = transaction.time / config.load
            pending = _PendingPayment(
                transaction=transaction, started_at=start_at
            )
            queue.schedule(
                max(0.0, start_at - queue.now),
                lambda: (feed_one(), start(pending)),
            )
            fed += 1
            if progress is not None and fed % 10_000 == 0:
                progress(fed)

        # Bootstrap the lookahead window; each payment start then pulls
        # one more transaction, so at most ``lookahead`` un-started
        # transactions are resident at any instant.  The event budget is
        # re-evaluated per event and grows with the fed count, keeping
        # the livelock guard tight for the work actually admitted.
        for _ in range(lookahead):
            feed_one()
        queue.run_until_idle(
            max_events=lambda: fed * per_payment + len(scaled_events) + 16
        )
        schedule.flush(queue.now)
        if progress is not None:
            progress(fed)
        return accumulator.result(
            revenue_by_node=revenue_by_node if policy_aware else None,
            mice_threshold=threshold.value,
        )

    for transaction in workload:
        start_at = transaction.time / config.load
        pending = _PendingPayment(transaction=transaction, started_at=start_at)
        queue.schedule(start_at, lambda pending=pending: start(pending))

    budget = len(workload) * per_payment + len(scaled_events) + 16
    queue.run_until_idle(max_events=budget)
    schedule.flush(queue.now)

    result = SimulationResult(scheme=router.name, engine="concurrent")
    for transaction in workload:
        result.records.append(records[transaction.txid])
    if policy_aware:
        result.fees = fee_metrics(result.records, revenue_by_node)
    if mpp is not None:
        result.mpp = mpp_metrics(result.records)
    if faults is not None:
        schedule.finalize(queue.now)
        horizon = workload[len(workload) - 1].time if len(workload) else 0.0
        result.resilience = resilience_metrics(
            [transaction.time for transaction in workload],
            result.records,
            faults,
            adversary_escrow_seconds=(
                schedule.adversary_escrow_seconds * config.load
            ),
            horizon=horizon,
        )
    return result
