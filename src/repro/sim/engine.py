"""The **sequential** trace-driven simulation engine (§4.1, "Setup").

Two engines share the router/metrics contract:

* **sequential** (this module, the default everywhere) — payments are
  fed to the router one at a time in workload order; each settles (or
  fails) instantaneously before the next starts.  This is the paper's
  online model ("payments arrive at senders sequentially").  Routers
  learn about topology changes only through gossip (§3.1): channel
  events and fee repricing apply by ``Transaction.time`` and are
  gossiped on a fixed period, so a run without events or a fee
  controller is the static-topology replay of the paper's evaluation.
  :func:`repro.network.dynamics.run_dynamic_simulation` is a thin
  delegate of :func:`run_simulation` kept for its event-first
  signature.
* **concurrent** (:mod:`repro.sim.concurrent`) — payments start at
  their workload time on a discrete-event queue, place HTLC-style holds
  along their paths, and settle or time out after per-hop latency, so
  overlapping payments contend for channel balance.  See
  ``docs/CONCURRENCY.md``.

Sequential-equivalence guarantee: selecting ``engine="sequential"``
anywhere (runner, CLI, report) routes through :func:`run_simulation`,
whose results — every per-transaction record and every stored metric —
are byte-identical to the engine as it existed before the concurrent
engine was added (``tests/sim/test_concurrent.py`` pins this against a
golden record).

The engine feeds each payment to a router operating over a
:class:`~repro.network.view.NetworkView` of a fresh copy of the
topology, and folds per-transaction records (success, fees, message
deltas) into a :class:`~repro.sim.metrics.SimulationResult` through the
metrics accumulator.  It also
tags every transaction elephant/mouse against a reference threshold so
results can be broken down by class even for routers (the baselines)
that do not themselves classify.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro.core.base import Router
from repro.core.classifier import MiceThreshold
from repro.network.dynamics import (
    ChannelEvent,
    GossipSchedule,
    merge_event_streams,
)
from repro.network.graph import ChannelGraph
from repro.network.view import NetworkView
from repro.sim.faults import FaultPlan, resilience_metrics
from repro.sim.metrics import (
    SimulationResult,
    StreamingMetricsAccumulator,
    TransactionRecord,
)
from repro.sim.mpp import MppConfig, execute_parts_atomically, split_amounts
from repro.traces.workload import Workload, WorkloadStream

RouterFactory = Callable[
    [NetworkView, "Workload | WorkloadStream", random.Random], Router
]


def accrue_revenue(graph, transfers, into: dict) -> None:
    """Add each node's fees for ``transfers`` (``(path, amount)`` pairs).

    Shared by both engines so ``hub_revenue`` means the same thing
    everywhere.
    """
    for path, amount in transfers:
        fees = graph.path_fee_breakdown(list(path), amount)
        for node, earned in fees.items():
            into[node] = into.get(node, 0.0) + earned


def run_simulation(
    graph: ChannelGraph,
    router_factory: RouterFactory,
    workload: Workload | WorkloadStream,
    rng: random.Random | None = None,
    reference_mice_fraction: float = 0.9,
    copy_graph: bool = True,
    mpp: MppConfig | None = None,
    events: Sequence[ChannelEvent] = (),
    gossip_period: float = 600.0,
    faults: FaultPlan | None = None,
) -> SimulationResult:
    """Route ``workload`` over ``graph`` with a fresh router; returns metrics.

    ``copy_graph=True`` (default) leaves the input graph untouched so the
    same topology can be replayed across schemes — the paper compares all
    four schemes on identical initial balances.  ``copy_graph=False``
    mutates it in place (invariant tests inspect the final balances).

    Channel ``events`` apply to the graph at their timestamps, between
    payments, and a :class:`~repro.network.dynamics.GossipSchedule`
    gossips them to the router every ``gossip_period`` seconds.  The
    same schedule ticks the graph's ``fee_controller``, if it has one.
    ``faults`` (a :class:`repro.sim.faults.FaultPlan`) merges the
    plan's adversarial events into that stream (churn first at equal
    timestamps) and attaches the resilience metric family to the result
    (see :func:`repro.sim.faults.resilience_metrics`).

    With ``mpp`` set, qualifying payments (at or above the resolved
    splitting threshold) fan out into parts that escrow independently
    and settle all-or-nothing through
    :func:`~repro.sim.mpp.execute_parts_atomically`; ``result.mpp``
    then carries :data:`~repro.sim.metrics.MPP_FAMILY`.

    Every per-transaction record is folded through a
    :class:`~repro.sim.metrics.StreamingMetricsAccumulator`, which
    returns the result.  A list-backed workload keeps its records
    (``result.records``, workload order) and exact quantiles.  A
    :class:`~repro.traces.workload.WorkloadStream` keeps neither, so
    memory stays O(1) in the trace length; its quantiles are P²
    estimates and the elephant threshold comes from the stream's hint or
    an online reservoir estimate.  Streaming is incompatible with
    ``faults``: resilience metrics need the full ordered record list, so
    that combination raises rather than approximating.
    """
    streaming = isinstance(workload, WorkloadStream)
    if streaming and faults is not None:
        raise ValueError(
            "streaming workloads cannot run with a fault plan: resilience "
            "metrics need the full ordered record list; materialize() the "
            "stream instead"
        )
    working_graph = graph.copy() if copy_graph else graph
    run_rng = rng if rng is not None else random.Random(0)
    if mpp is None:
        view = NetworkView(working_graph)
    else:
        # Deferred-settlement view: routers place holds that settle (or
        # refund) only when the whole multi-part payment resolves.
        from repro.sim.concurrent import ConcurrentNetworkView, HoldLedger

        mpp.validate()
        ledger = HoldLedger()
        view = ConcurrentNetworkView(working_graph, ledger)
    router = router_factory(view, workload, run_rng)
    if faults is not None:
        events = merge_event_streams(events, faults.events)
    schedule = GossipSchedule(
        graph=working_graph, events=events, gossip_period=gossip_period
    )
    schedule.register(router)
    threshold = MiceThreshold(workload, reference_mice_fraction)
    counters = view.counters
    revenue_by_node: dict = {}
    accumulator = StreamingMetricsAccumulator(
        scheme=router.name, track_mpp=mpp is not None, keep_records=not streaming
    )

    for transaction in workload:
        schedule.advance_to(transaction.time)
        threshold.observe(transaction.amount)
        probes_before = counters.probe_messages
        payments_before = counters.payment_messages
        if mpp is None:
            outcome = router.route(transaction)
            parts = partial_releases = 0
        else:
            amounts = split_amounts(
                mpp,
                transaction.amount,
                threshold.value,
                graph=working_graph,
                sender=transaction.sender,
            )
            outcome = execute_parts_atomically(
                working_graph,
                router,
                ledger,
                transaction,
                amounts,
                mpp.part_retries,
            )
            parts, partial_releases = outcome.parts, outcome.partial_releases
        # ``policy_aware`` is re-read per payment: a fee controller may
        # assign the first policies at a gossip tick mid-run.
        if outcome.success and working_graph.policy_aware:
            accrue_revenue(working_graph, outcome.transfers, revenue_by_node)
        accumulator.observe(
            TransactionRecord(
                txid=transaction.txid,
                amount=transaction.amount,
                success=outcome.success,
                fee=outcome.fee,
                is_elephant=transaction.amount >= threshold.value,
                probe_messages=counters.probe_messages - probes_before,
                payment_messages=counters.payment_messages - payments_before,
                paths_used=len(outcome.transfers),
                parts=parts,
                partial_releases=partial_releases,
            )
        )

    result = accumulator.result(
        revenue_by_node=revenue_by_node if working_graph.policy_aware else None,
        mice_threshold=threshold.value,
    )
    if faults is not None:
        horizon = workload[len(workload) - 1].time if len(workload) else 0.0
        schedule.finalize(horizon)
        result.resilience = resilience_metrics(
            [transaction.time for transaction in workload],
            result.records,
            faults,
            adversary_escrow_seconds=schedule.adversary_escrow_seconds,
            horizon=horizon,
        )
    return result
