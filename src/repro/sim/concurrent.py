"""The discrete-event payment engine (in-flight holds, timeouts).

Payments *start* at their workload time on a shared
:class:`~repro.protocol.events.EventQueue`, place HTLC-style **holds**
on every hop of every partial path (the hold-then-settle lifecycle of
the BOLT specifications), and only **settle** — converting holds into
balance transfers — after a per-hop latency round trip.  While a payment
is in flight its holds reduce the *available* balance every other
payment (and every probe) sees, because
:meth:`repro.network.channel.Channel.balance` is defined net of holds.
That makes contention, retry behaviour, and latency measurable.

The sequential engine, :func:`repro.sim.engine.run_simulation`, is this
loop at zero contention: no hop latency, no engine retries and the
trace's own arrival times, so every payment settles at its own start
instant, before the next one starts.  :func:`run_concurrent_simulation`
runs the same loop under a :class:`ConcurrencyConfig`.

Lifecycle of one payment (see ``docs/CONCURRENCY.md`` for the full
model):

1. **start** — at ``transaction.time / load`` the router plans and
   reserves the payment.  Probes are instantaneous; reservations go
   through :class:`ConcurrentNetworkView`, which places holds instead of
   settling (both ``try_execute`` and payment sessions) — except that
   at zero hop latency a whole payment's ``try_execute`` settles at
   once, netted per channel.
2. **settle** — a successful reservation over paths with at most ``h``
   hops completes ``2 * hop_latency * h`` later (forward lock pass +
   reverse settle pass); the holds become transfers and the payment is
   recorded with its latency.  A settle due at the reservation instant
   runs inline, so payments with equal timestamps keep workload order.
3. **timeout** — if the settle delay would exceed ``timeout``, the
   payment instead fails ``timeout`` seconds after its holds were
   placed (the reservation instant — which follows any retry waits,
   exactly like an HTLC's expiry counts from when it is offered): every
   hold is released and the record is marked ``timed_out``.  Timeouts
   are structural (the chosen paths are too long for the timeout), so
   they are not retried.
4. **retry** — a reservation that fails outright (no capacity) is
   retried ``retry_delay`` later, up to ``max_retries`` times; earlier
   payments may have settled in between, freeing capacity.

Channel and fault events apply at their timestamps; routers hear of
them, and a fee controller reprices, only when a payment starts (the
:class:`~repro.network.dynamics.GossipSchedule` tick).  Adversarial
faults (:mod:`repro.sim.faults`) ride the same event queue: a compiled
:class:`~repro.sim.faults.FaultPlan` merges its JAM/UNJAM/DRAIN/force-
CLOSE events into the churn stream, and an engine-side escrow registry
releases the in-flight holds of any payment crossing a force-closed
channel (the payment then fails at its settle time instead of
stranding escrow — see ``docs/RESILIENCE.md``).

Determinism: the engine is a pure function of ``(graph, workload,
events, config, rng)``.  Events are ordered by ``(time, sequence)``
(the :class:`~repro.protocol.events.EventQueue` tie-break), and sequence
numbers are assigned in a fixed order — churn events first, then
payment starts in workload order, then the follow-up events each action
schedules — so two runs with the same seed produce identical
:class:`~repro.sim.metrics.SimulationResult` records, including across
``workers=N`` fork parallelism.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import partial

from repro.errors import NoChannelError, ProtocolError
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
from repro.sim.knobs import KnobSet
from repro.sim.metrics import (
    SimulationResult,
    StreamingMetricsAccumulator,
    TransactionRecord,
)
from repro.sim.mpp import MppConfig, split_amounts
from repro.traces.workload import Transaction, Workload, WorkloadStream

#: One held hop: escrowed ``amount`` in the ``src -> dst`` direction.
HeldHop = tuple[NodeId, NodeId, float]

#: Un-started transactions a :class:`~repro.traces.workload.WorkloadStream`
#: keeps on the event queue.
LOOKAHEAD = 256


@dataclass(frozen=True)
class ConcurrencyConfig(KnobSet):
    """The knobs of the concurrent engine (all simulated-time seconds).

    ``load`` uniformly compresses the input trace: every workload and
    churn timestamp (and the gossip period) is divided by it, while
    ``hop_latency``/``timeout``/``retry_delay`` stay in wall-clock
    seconds — so ``load=100`` offers 100x the paper's arrival rate
    against unchanged hold durations.  ``timeout`` caps how long a
    payment's holds may stay in flight before they are released;
    ``max_retries`` bounds engine-level re-attempts of reservations that
    failed for lack of capacity, each ``retry_delay`` after the last.
    """

    hop_latency: float = 0.1
    timeout: float = 5.0
    load: float = 1.0
    max_retries: int = 1
    retry_delay: float = 1.0
    gossip_period: float = 600.0

    kind = "concurrency"

    def validate(self) -> None:
        """Raise :class:`ValueError` on non-finite or out-of-range knobs."""
        super().validate()
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
        #: The open attempt settles at its reservation instant, so its
        #: multi-path executes may apply at once (see
        #: :meth:`ConcurrentNetworkView.try_execute`).
        self.settles_now = False
        self._holds: list[HeldHop] = []
        self._transfers: list[tuple[tuple[NodeId, ...], float]] = []

    def begin(self, settles_now: bool) -> None:
        """Open collection for one route attempt."""
        self._active = True
        self.settles_now = settles_now

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
        self.settles_now = False
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
        self._ledger.add(self._staged, self._transfers)
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
      is strictly more conservative than the netted
      :meth:`~repro.network.graph.ChannelGraph.execute`) — unless the
      attempt settles at its reservation instant, when it applies the
      payment netted at once, as :class:`NetworkView` does;
    * :meth:`open_session` returns a :class:`DeferredPaymentSession`.
    """

    def __init__(self, graph: ChannelGraph, ledger: HoldLedger) -> None:
        super().__init__(graph)
        self._ledger = ledger

    def try_execute(
        self, transfers: list[tuple[tuple[NodeId, ...], float]]
    ) -> bool:
        """Escrow a multi-path payment hop by hop; all-or-nothing.

        Costs one payment message per hop of every partial payment,
        whether or not the attempt reaches it — the count
        :meth:`NetworkView.try_execute` charges.  An attempt that
        settles at its reservation instant (zero hop latency, a whole
        payment) has nothing in flight to escrow: it applies at once,
        partial payments in opposite directions of a channel netting
        out (the capacity constraint of program (1)), and hands the
        ledger its paths without holds.
        """
        if self._ledger.settles_now:
            if not super().try_execute(transfers):
                return False
            self._ledger.add(
                (), [(tuple(path), amount) for path, amount in transfers]
            )
            return True
        graph = self._graph
        self.counters.payment_attempts += 1
        self.counters.payment_messages += sum(
            len(path) - 1 for path, _ in transfers
        )
        policy_aware = graph.policy_aware
        placed: list[HeldHop] = []
        try:
            for path, amount in transfers:
                # BOLT escrow: each hop locks the delivered amount plus
                # all downstream fees (a list of equal amounts without
                # policies — byte-identical to the pre-policy engine).
                hop_amounts = (
                    graph.path_hop_amounts(list(path), amount)
                    if policy_aware
                    else None
                )
                for index, (u, v) in enumerate(zip(path, path[1:])):
                    hop_amount = (
                        amount if hop_amounts is None else hop_amounts[index]
                    )
                    if not graph.hold(u, v, hop_amount):
                        return self._refund(placed)
                    placed.append((u, v, hop_amount))
        except NoChannelError:
            # A hop closed since the router's last gossip tick.
            return self._refund(placed)
        self._ledger.add(
            placed, [(tuple(path), amount) for path, amount in transfers]
        )
        return True

    def _refund(self, placed: list[HeldHop]) -> bool:
        """Release ``placed`` in reverse order; a failed execute's result."""
        for u, v, amount in reversed(placed):
            self._graph.release_hold(u, v, amount)
        return False

    def open_session(self) -> DeferredPaymentSession:
        """Start a payment session whose commit defers to the engine."""
        return DeferredPaymentSession(self._graph, self.counters, self._ledger)


@dataclass(slots=True)
class _PendingPayment:
    """Engine-side state of one payment across its attempts.

    ``index`` is the payment's position in a list workload, where its
    record is kept until the run folds every record in workload order.
    """

    transaction: Transaction
    started_at: float
    index: int
    attempts: int = 0
    probe_messages: int = 0
    payment_messages: int = 0


@dataclass(slots=True)
class _InFlight:
    """One payment's escrow between reservation and settle/expire.

    ``holds`` shrinks when a force-close releases the closed pair's
    hops; ``disrupted`` marks the payment as doomed — its settle event
    releases the surviving holds and records a failure instead of
    settling a broken path.
    """

    pending: _PendingPayment
    holds: list[HeldHop]
    transfers: list[tuple[tuple[NodeId, ...], float]]
    #: Per-node fee revenue of each path, priced at reservation time
    #: (the policies the escrow was sized under — a fee-controller tick
    #: between reserve and settle must not reprice in-flight holds).
    #: Kept path by path: settling adds them to the run's revenue in
    #: path order, one float addition per node and path.
    revenue: Sequence[dict]
    #: MPP part index (-1 for whole payments): parts share their
    #: parent's txid, so the registry keys escrow by ``(txid, part)``.
    part: int = -1
    disrupted: bool = False


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
    paths_used: int = 0
    done: bool = False


class _EscrowRegistry:
    """Engine-side index of in-flight escrow, keyed by channel pair.

    Registered as the :class:`~repro.network.dynamics.GossipSchedule`'s
    ``hold_owner``: when a fault force-closes a channel mid-flight, the
    schedule calls :meth:`force_close` and the registry releases every
    affected payment's holds on that pair (in deterministic
    ``(txid, part)`` order) and marks the payments disrupted, so escrow
    is never stranded on a removed channel and conservation invariants
    hold.  Only flights that stay in flight past their reservation
    instant are registered: one settled inline can never meet a
    force-close.
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
        """Track a reserved payment's holds while it is in flight."""
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
    lookahead: int = LOOKAHEAD,
    progress=None,
) -> SimulationResult:
    """Route ``workload`` with overlapping in-flight payments; returns metrics.

    Same contract as :func:`repro.sim.engine.run_simulation` — fresh
    router over a (by default) copied graph, one
    :class:`~repro.sim.metrics.TransactionRecord` per transaction folded
    through a :class:`~repro.sim.metrics.StreamingMetricsAccumulator` —
    under ``config`` and the lifecycle of the module docstring.  A list
    workload's times must not decrease.  A list-backed run keeps each
    record at its workload position and
    folds them in workload order once the queue drains, so its float
    sums do not depend on completion order.  ``events`` (channel churn)
    apply at their compressed timestamps, before any payment starting
    at the same instant.

    The result has ``engine="concurrent"``, which adds
    :data:`repro.sim.metrics.CONCURRENCY_FAMILY` to its stored record.
    A compiled ``faults`` plan merges its adversarial events into the
    (compressed) churn stream, force-closed channels release their
    in-flight escrow through the engine's registry, and
    ``result.resilience`` carries
    :data:`repro.sim.metrics.RESILIENCE_FAMILY`, its adversary-escrow
    integral in uncompressed trace seconds so that it compares across
    ``load`` settings.

    ``mpp`` (an :class:`~repro.sim.mpp.MppConfig`) fans qualifying
    payments out at their start instant into parts that route, escrow
    and retry (``part_retries`` / ``part_retry_delay``) independently
    and settle **all-or-nothing** at the slowest part's settle-ready
    time; a part out of retries, a force-close on a part, or the shared
    ``deadline`` (which fires before any event at its instant) refunds
    every sibling hold.  ``result.mpp`` then carries
    :data:`repro.sim.metrics.MPP_FAMILY`.

    A :class:`~repro.traces.workload.WorkloadStream` is fed through a
    window: ``lookahead`` transactions go onto the queue up front and
    each payment start pulls one more, so at most ``lookahead``
    un-started transactions are resident; a stream's records fold as
    they finish, its quantiles are P² estimates, and without a
    ``mice_threshold_hint`` its elephant threshold is estimated from
    every amount fed so far.  ``progress`` (a callable taking the fed
    count) fires every 10,000 feeds and once at the end.  Streaming
    raises with ``faults`` (resilience metrics need the ordered record
    list).  A stream's starts take their queue sequence numbers as they
    are fed, so at *identical* timestamps their tie-break can differ
    from the list run's; with distinct timestamps the headline metrics
    match it exactly.
    """
    config = config if config is not None else ConcurrencyConfig()
    return _simulate(
        graph, router_factory, workload, rng, config, events,
        reference_mice_fraction, copy_graph, faults, mpp, lookahead, progress,
        engine="concurrent",
    )


def _simulate(
    graph: ChannelGraph,
    router_factory,
    workload: Workload | WorkloadStream,
    rng: random.Random | None,
    config: ConcurrencyConfig,
    events: Sequence[ChannelEvent] | None,
    reference_mice_fraction: float,
    copy_graph: bool,
    faults: FaultPlan | None,
    mpp: MppConfig | None,
    lookahead: int,
    progress,
    engine: str,
) -> SimulationResult:
    """The event loop both engines run; ``engine`` labels the result.

    A ``"sequential"`` run records no latency, retries or timeouts: its
    result carries no concurrency family.
    """
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
    if not streaming:
        times = [transaction.time for transaction in workload]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ValueError(
                "list workload times must not decrease: payments start in "
                "time order, so a decreasing time would reorder them"
            )
    if mpp is not None:
        mpp.validate()
    timed = engine == "concurrent"
    working_graph = graph.copy() if copy_graph else graph
    run_rng = rng if rng is not None else random.Random(0)
    queue = EventQueue()
    ledger = HoldLedger()
    view = ConcurrentNetworkView(working_graph, ledger)
    counters = view.counters
    router = router_factory(view, workload, run_rng)
    threshold = MiceThreshold(workload, reference_mice_fraction)
    # MPP-free runs record parts=0 (the pre-MPP record defaults);
    # MPP-enabled runs record parts=1 for payments that did not split.
    default_parts = 0 if mpp is None else 1
    registry = _EscrowRegistry(working_graph)
    revenue_by_node: dict[NodeId, float] = {}

    def compress(stream) -> list[ChannelEvent]:
        return [replace(event, time=event.time / config.load) for event in stream]

    scaled_events = merge_event_streams(
        compress(events or ()),
        compress(faults.events if faults is not None else ()),
    )
    schedule = GossipSchedule(
        graph=working_graph,
        events=scaled_events,
        gossip_period=config.gossip_period / config.load,
        hold_owner=registry,
    )
    schedule.register(router)

    accumulator = StreamingMetricsAccumulator(
        scheme=router.name,
        engine=engine,
        track_mpp=mpp is not None,
        keep_records=not streaming,
    )
    records: list[TransactionRecord | None] | None = (
        None if streaming else [None] * len(workload)
    )

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
        finished = TransactionRecord(
            txid=transaction.txid,
            amount=transaction.amount,
            success=success,
            fee=fee,
            is_elephant=transaction.amount >= threshold.value,
            probe_messages=pending.probe_messages,
            payment_messages=pending.payment_messages,
            paths_used=paths_used,
            latency=queue.now - pending.started_at if timed else 0.0,
            retries=max(0, pending.attempts - attempts_base) if timed else 0,
            timed_out=timed_out and timed,
            parts=default_parts if parts is None else parts,
            partial_releases=partial_releases,
        )
        if records is None:
            accumulator.observe(finished)
        else:
            records[pending.index] = finished

    def release(flight: _InFlight) -> None:
        """Refund one flight's escrow, in reverse placement order."""
        for u, v, amount in reversed(flight.holds):
            working_graph.release_hold(u, v, amount)

    def commit(flight: _InFlight) -> None:
        """Settle one flight's escrow and book its fee revenue."""
        for u, v, amount in flight.holds:
            working_graph.settle_hold(u, v, amount)
        for fees in flight.revenue:
            for node, earned in fees.items():
                revenue_by_node[node] = revenue_by_node.get(node, 0.0) + earned

    def finish(flight: _InFlight, outcome) -> None:
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

    def settle(flight: _InFlight, outcome) -> None:
        registry.unregister(flight)
        finish(flight, outcome)

    def expire(flight: _InFlight, outcome) -> None:
        registry.unregister(flight)
        release(flight)
        record(
            flight.pending,
            success=False,
            fee=0.0,
            paths_used=len(outcome.transfers),
            timed_out=True,
        )

    # The lock pass reaches the receiver after hop_latency per hop of
    # the longest path; the settle pass walks back.
    round_trip = 2.0 * config.hop_latency

    def reserve(pending: _PendingPayment, transaction, part: int = -1):
        """Route one attempt and escrow it as an (unregistered) flight.

        Churn due by now applies, and routers hear of it, before the
        payment routes.  Returns ``(outcome, flight)``; ``flight`` is
        None when the route failed.  A whole payment at zero hop
        latency settles at once; an MPP part waits in flight for its
        siblings.
        """
        schedule.advance_to(queue.now)
        probes_before = counters.probe_messages
        payments_before = counters.payment_messages
        ledger.begin(settles_now=part < 0 and not round_trip)
        outcome = router.route(transaction)
        holds, transfers = ledger.collect()
        pending.attempts += 1
        pending.probe_messages += counters.probe_messages - probes_before
        pending.payment_messages += counters.payment_messages - payments_before
        if not outcome.success:
            # Defensive: a failed route must not leave escrow behind.
            for u, v, amount in reversed(holds):
                working_graph.release_hold(u, v, amount)
            return outcome, None
        transfers = transfers or list(outcome.transfers)
        # Re-read per payment: a fee controller's first tick can make a
        # policy-free graph policy-aware mid-run.
        revenue = (
            [
                working_graph.path_fee_breakdown(list(path), amount)
                for path, amount in transfers
            ]
            if working_graph.policy_aware
            else ()
        )
        return outcome, _InFlight(pending, holds, transfers, revenue, part)

    def attempt(pending: _PendingPayment) -> None:
        outcome, flight = reserve(pending, pending.transaction)
        if flight is not None:
            settle_delay = round_trip * _max_hops(flight.transfers)
            if not settle_delay:
                finish(flight, outcome)
                return
            registry.register(flight)
            if settle_delay > config.timeout:
                queue.schedule(config.timeout, lambda: expire(flight, outcome))
            else:
                queue.schedule(settle_delay, lambda: settle(flight, outcome))
            return
        if pending.attempts <= config.max_retries:
            queue.schedule(config.retry_delay, lambda: attempt(pending))
            return
        record(
            pending,
            success=False,
            fee=0.0,
            paths_used=0,
            timed_out=False,
        )

    # ------------------------------------------- multi-part coordination

    def mpp_abort(state: _MppPayment, timed_out: bool) -> None:
        """Refund every reserved sibling part's escrow; fail the payment."""
        if state.done:
            return
        state.done = True
        for index in sorted(state.flights):
            registry.unregister(state.flights[index])
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

    def mpp_settle(state: _MppPayment) -> None:
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
            registry.unregister(state.flights[index])
            commit(state.flights[index])
        record(
            state.pending,
            success=True,
            fee=state.fee_total,
            paths_used=state.paths_used,
            timed_out=False,
            parts=len(state.amounts),
            partial_releases=0,
            attempts_base=len(state.amounts),
        )

    def attempt_part(state: _MppPayment, index: int) -> None:
        if state.done:
            return
        transaction = state.pending.transaction
        part_amount = state.amounts[index]
        part_tx = (
            transaction
            if part_amount == transaction.amount
            else replace(transaction, amount=part_amount)
        )
        outcome, flight = reserve(state.pending, part_tx, part=index)
        state.part_attempts[index] = state.part_attempts.get(index, 0) + 1
        if flight is not None:
            # A part waits for its siblings in flight, where a
            # force-close can reach it.
            registry.register(flight)
            state.flights[index] = flight
            state.fee_total += outcome.fee
            state.paths_used += len(flight.transfers)
            state.ready_at[index] = queue.now + round_trip * _max_hops(
                flight.transfers
            )
            if len(state.flights) == len(state.amounts):
                settle_at = max(state.ready_at.values())
                if settle_at > state.deadline_at:
                    # The slowest part cannot be settle-ready before the
                    # shared deadline; the deadline event will refund
                    # everything (timed_out), like a structural timeout.
                    return
                if settle_at == queue.now:
                    mpp_settle(state)
                else:
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

    # Channel and fault events are scheduled before payment starts so
    # that at equal timestamps the sequence tie-break applies them
    # first.  They only change the graph: routers hear of them at the
    # next payment start's gossip tick.
    def apply_events() -> None:
        schedule.apply_due(queue.now)

    for event in scaled_events:
        queue.schedule(event.time, apply_events)

    # Every payment contributes at most (1 + max_retries) attempts plus
    # one settle/timeout event; with MPP each payment may additionally
    # fan out into parts with their own retries, one joint settle, and
    # one deadline event.  Anything beyond the bound is a bug.
    per_payment = config.max_retries + 2
    if mpp is not None:
        per_payment += mpp.max_parts * (mpp.part_retries + 2) + 2

    source = iter(workload)
    fed = 0

    def feed_one() -> None:
        """Pull the next transaction (if any) onto the event queue.

        Feeds happen before the run or, for a time-ordered stream, at
        payment-start instants, so the computed delay is never negative;
        the ``max`` is purely defensive against a mis-ordered stream.
        """
        nonlocal fed
        transaction = next(source, None)
        if transaction is None:
            return
        start_at = transaction.time / config.load
        pending = _PendingPayment(transaction, start_at, fed)
        threshold.observe(transaction.amount)
        queue.schedule(
            max(0.0, start_at - queue.now),
            (lambda: (feed_one(), start(pending)))
            if streaming
            else partial(start, pending),
        )
        fed += 1
        if progress is not None and fed % 10_000 == 0:
            progress(fed)

    # A list is fed whole before the run, so its payment starts take
    # their sequence numbers in workload order, right after the churn
    # events.  A stream bootstraps its lookahead window; each payment
    # start then pulls one more transaction, so at most ``lookahead``
    # un-started transactions are resident at any instant.  A stream's
    # event budget is re-evaluated per event and grows with the fed
    # count, keeping the livelock guard tight for the work admitted.
    for _ in range(lookahead if streaming else len(workload)):
        feed_one()
    queue.run_until_idle(
        max_events=lambda: fed * per_payment + len(scaled_events) + 16
    )
    # The callbacks that schedule themselves hold their own closure
    # cells; emptying those cells frees the router, view and graph copy
    # when this function returns, without waiting for the collector.
    del feed_one, attempt, attempt_part
    if progress is not None:
        progress(fed)
    if records is not None:
        for finished in records:
            accumulator.observe(finished)

    result = accumulator.result(
        revenue_by_node=(
            revenue_by_node if working_graph.policy_aware else None
        ),
        mice_threshold=threshold.value,
    )
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
