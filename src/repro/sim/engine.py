"""The **sequential** trace-driven simulation engine (§4.1, "Setup").

One event loop (:mod:`repro.sim.concurrent`) serves both engines:

* **sequential** (:func:`run_simulation`, the default everywhere) —
  the loop at zero contention: no hop latency, no engine retries and
  the trace's own arrival times, so each payment settles (or fails) at
  its own start instant, before the next starts.  This is the paper's
  online model ("payments arrive at senders sequentially").  Its
  results are labelled ``engine="sequential"`` and carry no latency,
  retry or timeout values.  Channel events apply at their timestamps;
  routers hear of them (§3.1), and fees reprice, at payment starts once
  per gossip period, so a run without events or a fee controller is
  the static-topology replay of the paper's evaluation.
  :func:`repro.network.dynamics.run_dynamic_simulation` is a delegate
  kept for its event-first signature.
* **concurrent** (:func:`repro.sim.concurrent.run_concurrent_simulation`)
  — the loop under a :class:`~repro.sim.concurrent.ConcurrencyConfig`,
  where payments hold balance in flight and contend for it; see
  ``docs/CONCURRENCY.md``.

Sequential-equivalence guarantee: ``engine="sequential"`` results —
every per-transaction record and every stored metric — are
byte-identical to the engine as it existed before the concurrent
engine was added (``tests/sim/test_concurrent.py`` pins a golden
record; ``tests/sim/test_engine_oracle.py`` replays the former
one-payment-at-a-time loop, kept in ``tests/engine_reference.py``,
netted multi-path executes included).
Multi-part payments follow the engine's one set of MPP rules
(:mod:`repro.sim.mpp`).  Every record is also tagged elephant/mouse
against a reference threshold, so results break down by class even
for routers (the baselines) that do not classify.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro.core.base import Router
from repro.network.dynamics import ChannelEvent
from repro.network.graph import ChannelGraph
from repro.network.view import NetworkView
from repro.sim.concurrent import LOOKAHEAD, ConcurrencyConfig, _simulate
from repro.sim.faults import FaultPlan
from repro.sim.metrics import SimulationResult
from repro.sim.mpp import MppConfig
from repro.traces.workload import Workload, WorkloadStream

RouterFactory = Callable[
    [NetworkView, "Workload | WorkloadStream", random.Random], Router
]


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

    Payments start in time order, so a list workload's times must not
    decrease.  A whole payment's multi-path execute settles at once,
    netted per channel (:meth:`NetworkView.try_execute`).  Channel
    ``events`` apply to the graph at their timestamps, between payments,
    and a :class:`~repro.network.dynamics.GossipSchedule` gossips them to
    the router every ``gossip_period`` seconds (positive and finite), at
    a payment's start.  The same schedule ticks the graph's
    ``fee_controller``, if it has one.  ``faults`` (a
    :class:`repro.sim.faults.FaultPlan`) merges the plan's adversarial
    events into that stream (churn first at equal timestamps) and
    attaches the resilience metric family to the result (see
    :func:`repro.sim.faults.resilience_metrics`).

    With ``mpp`` set, qualifying payments (at or above the resolved
    splitting threshold) fan out into parts that escrow independently
    and settle all-or-nothing under the engine's MPP rules: a failed
    part retries ``part_retry_delay`` later within the ``deadline``,
    while later payments go on routing.  ``result.mpp`` then carries
    :data:`~repro.sim.metrics.MPP_FAMILY`.

    Every per-transaction record is folded through a
    :class:`~repro.sim.metrics.StreamingMetricsAccumulator`, which
    returns the result.  A list-backed workload keeps its records
    (``result.records``, workload order) and exact quantiles.  A
    :class:`~repro.traces.workload.WorkloadStream` keeps neither, so
    memory stays O(lookahead) in the trace length; its quantiles are P²
    estimates and the elephant threshold comes from the stream's hint or
    an online reservoir estimate over the amounts fed so far.  Streaming
    is incompatible with ``faults``: resilience metrics need the full
    ordered record list, so that combination raises rather than
    approximating.
    """
    config = ConcurrencyConfig(
        hop_latency=0.0, max_retries=0, gossip_period=gossip_period
    )
    return _simulate(
        graph, router_factory, workload, rng, config, events,
        reference_mice_fraction, copy_graph, faults, mpp, LOOKAHEAD, None,
        engine="sequential",
    )
