#!/usr/bin/env python3
"""Routing while the network itself changes: churn, gossip, rebalancing.

Two extension scenarios beyond the paper's static-topology evaluation:

1. **Churn** — channels open and close (onchain events) while payments
   flow; routers learn about changes at gossip ticks and Flash refreshes
   its routing table (§3.1/§3.3 behaviours).
2. **Rebalancing** — after a one-directional drain (the §4.2 saturation
   failure mode), Revive-style cycle rebalancing restores success ratio
   without touching total channel capacity.

Run:  python examples/dynamic_network.py
"""

from __future__ import annotations

import random

from repro import ChurnModel, Rebalancer, channel_skew, ripple_like_topology
from repro.sim import flash_factory, run_simulation, shortest_path_factory
from repro.traces import generate_ripple_workload


def churn_scenario() -> None:
    print("== scenario 1: routing under channel churn ==")
    rng = random.Random(11)
    graph = ripple_like_topology(rng, n_nodes=120, n_edges=1_000)
    graph.scale_balances(10.0)
    workload = generate_ripple_workload(rng, graph.nodes, 250)

    static = run_simulation(graph, flash_factory(), workload)
    churn = ChurnModel(
        graph, random.Random(1), opens_per_hour=180, closes_per_hour=180
    )
    events = churn.generate(workload[-1].time)
    dynamic = run_simulation(
        graph, flash_factory(), workload, events=events, gossip_period=600.0
    )
    print(f"  topology events while routing: {len(events)}")
    print(
        f"  static topology : ratio {100 * static.success_ratio:.1f}%  "
        f"volume {static.success_volume:,.0f}"
    )
    print(
        f"  churning topology: ratio {100 * dynamic.success_ratio:.1f}%  "
        f"volume {dynamic.success_volume:,.0f}"
    )


def rebalance_scenario() -> None:
    print("\n== scenario 2: recovering from saturation by rebalancing ==")
    rng = random.Random(13)
    graph = ripple_like_topology(rng, n_nodes=120, n_edges=1_000)
    drain = generate_ripple_workload(rng, graph.nodes, 600)
    run_simulation(graph, shortest_path_factory(), drain, copy_graph=False)

    skews = [channel_skew(channel) for channel in graph.channels()]
    print(
        f"  after drain: {sum(1 for s in skews if s > 0.6)} of "
        f"{len(skews)} channels are >60% one-sided"
    )
    probe = generate_ripple_workload(rng, graph.nodes, 200)
    before = run_simulation(graph, shortest_path_factory(), probe)

    rebalanced = graph.copy()
    report = Rebalancer(rebalanced, random.Random(2), skew_threshold=0.5).run(
        passes=5, max_cycles=300
    )
    after = run_simulation(rebalanced, shortest_path_factory(), probe)
    print(
        f"  rebalanced {report.cycles_executed} cycles, shifted "
        f"{report.volume_shifted:,.0f} without changing any channel total"
    )
    print(
        f"  success ratio: {100 * before.success_ratio:.1f}% -> "
        f"{100 * after.success_ratio:.1f}%"
    )


if __name__ == "__main__":
    churn_scenario()
    rebalance_scenario()
