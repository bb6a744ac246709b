"""The one-payment-at-a-time sequential loop, kept as a test reference.

``repro.sim.engine.run_simulation`` runs the event loop of
:mod:`repro.sim.concurrent` at zero contention.  Before that, the
sequential engine was the loop below: each payment routes over a plain
:class:`~repro.network.view.NetworkView` (whose ``try_execute`` nets
opposite flows through ``ChannelGraph.execute`` and settles at once),
channel events and the fee controller advance by each payment's
timestamp, and every record is folded as its payment returns.  It is
kept here verbatim, without its multi-part path, and shares no loop
code with the engine; ``tests/sim/test_engine_oracle.py`` checks that
the engine reproduces it record for record.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

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
from repro.traces.workload import Workload, WorkloadStream


def accrue_revenue(graph, transfers, into: dict) -> None:
    """Add each node's fees for ``transfers`` (``(path, amount)`` pairs)."""
    for path, amount in transfers:
        fees = graph.path_fee_breakdown(list(path), amount)
        for node, earned in fees.items():
            into[node] = into.get(node, 0.0) + earned


def run_simulation(
    graph: ChannelGraph,
    router_factory,
    workload: Workload | WorkloadStream,
    rng: random.Random | None = None,
    reference_mice_fraction: float = 0.9,
    copy_graph: bool = True,
    mpp=None,
    events: Sequence[ChannelEvent] = (),
    gossip_period: float = 600.0,
    faults: FaultPlan | None = None,
) -> SimulationResult:
    """Route ``workload`` one payment at a time; returns metrics."""
    if mpp is not None:
        raise ValueError("the reference loop has no multi-part path")
    streaming = isinstance(workload, WorkloadStream)
    if streaming and faults is not None:
        raise ValueError(
            "streaming workloads cannot run with a fault plan: resilience "
            "metrics need the full ordered record list; materialize() the "
            "stream instead"
        )
    working_graph = graph.copy() if copy_graph else graph
    run_rng = rng if rng is not None else random.Random(0)
    view = NetworkView(working_graph)
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
        scheme=router.name, keep_records=not streaming
    )

    for transaction in workload:
        schedule.advance_to(transaction.time)
        threshold.observe(transaction.amount)
        probes_before = counters.probe_messages
        payments_before = counters.payment_messages
        outcome = router.route(transaction)
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


def run_dynamic_simulation(
    graph,
    router_factory,
    workload,
    events,
    rng=None,
    gossip_period: float = 600.0,
    reference_mice_fraction: float = 0.9,
    faults=None,
    copy_graph: bool = True,
    mpp=None,
):
    """:func:`run_simulation` with the event stream fourth."""
    return run_simulation(
        graph,
        router_factory,
        workload,
        rng=rng,
        reference_mice_fraction=reference_mice_fraction,
        copy_graph=copy_graph,
        mpp=mpp,
        events=events,
        gossip_period=gossip_period,
        faults=faults,
    )
