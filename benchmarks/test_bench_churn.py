"""Churn micro-benchmark: incremental vs full-rebuild topology upkeep.

Replays one seeded heavy-churn event stream over the 10k-node
``scale-churn`` substrate twice — once with incremental compact-topology
maintenance (the default: :meth:`CompactTopology.apply_delta` tombstones
closes, arena-appends opens, compacts periodically) and once with
``ChannelGraph.incremental_compact = False`` (a full ``from_adjacency``
re-intern per event, the pre-incremental behaviour) — and measures
events/second plus per-event update cost for both.  Every 20 events a
BFS runs on the fresh snapshot, so both paths pay for a usable (not
merely constructed) topology, and the final incremental snapshot is
asserted observably identical to a from-scratch rebuild.

It also times the two kinds of :meth:`ChannelGraph.copy` the runner
makes of the substrate, one per scheme of a replication: the first
copy of a graph walks its rows, and every later copy of it, while it
stays unchanged, starts from the rows that walk kept.  Each is the
median of several trials.

Under ``BENCH_RECORD=1``, writes machine-readable ``BENCH_churn.json``
at the repo root (canonical serialization, like ``BENCH_routing.json``);
the committed snapshot's methodology notes live in docs/SCENARIOS.md.  Set
``BENCH_SMOKE=1`` for the CI-scale version, which only asserts that
incremental upkeep is no slower than rebuilding and a sibling copy no
slower than a walk.
"""

from __future__ import annotations

import os
import pathlib
import platform
import random
import statistics
import time

from _common import save_result, save_timed_snapshot

from repro.network.compact import CompactTopology
from repro.network.dynamics import ChannelEvent, ChannelEventType, GossipSchedule
from repro.network.graph import ChannelGraph
from repro.network.paths import bfs_distances, bfs_shortest_path
from repro.scenarios.registry import TOPOLOGIES

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

N_NODES = 1_200 if SMOKE else 10_000
N_EVENTS = 120 if SMOKE else 400
BFS_EVERY = 20
SEED = 20_260_730
COPY_TRIALS = 7

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_churn.json"


def _scale_graph() -> ChannelGraph:
    # The registered scale-churn substrate, at benchmark scale.
    builder = TOPOLOGIES.get("ba-scale")
    return builder.builder(random.Random(SEED), **builder.bind({"nodes": N_NODES}))


def _event_stream(graph: ChannelGraph) -> list[ChannelEvent]:
    """A deterministic open/close stream touching real channels.

    Closes pick live channels (tracked as the stream is generated, so
    none are refused no-ops); opens pick currently unconnected pairs.
    """
    rng = random.Random(SEED + 1)
    # A list for O(1) deterministic picks (swap-remove) plus a set for
    # O(1) membership; channel iteration order is deterministic, so the
    # stream reproduces exactly from the seed.
    channel_list = [(c.a, c.b) for c in graph.channels()]
    channels = set(channel_list)
    nodes = graph.nodes
    events: list[ChannelEvent] = []
    for step in range(N_EVENTS):
        if step % 2 == 0 and channel_list:
            pick = rng.randrange(len(channel_list))
            a, b = channel_list[pick]
            channel_list[pick] = channel_list[-1]
            channel_list.pop()
            channels.discard((a, b))
            events.append(
                ChannelEvent(float(step), ChannelEventType.CLOSE, a, b)
            )
        else:
            while True:
                a, b = rng.sample(nodes, 2)
                if (a, b) not in channels and (b, a) not in channels:
                    break
            channels.add((a, b))
            channel_list.append((a, b))
            events.append(
                ChannelEvent(
                    float(step), ChannelEventType.OPEN, a, b, 100.0, 100.0
                )
            )
    return events


def _replay(graph: ChannelGraph, events: list[ChannelEvent]) -> list[float]:
    """Apply each event and refresh the snapshot; per-event seconds."""
    schedule = GossipSchedule(graph=graph, events=events, gossip_period=1e9)
    rng = random.Random(SEED + 2)
    nodes = graph.nodes
    costs: list[float] = []
    for step, event in enumerate(events):
        start = time.perf_counter()
        schedule.advance_to(event.time)
        snapshot = graph.compact()
        costs.append(time.perf_counter() - start)
        assert snapshot.version == graph.topology_version
        if step % BFS_EVERY == 0:
            bfs_shortest_path(snapshot, rng.choice(nodes), rng.choice(nodes))
    return costs


def _copy_seconds(base: ChannelGraph) -> tuple[float, float]:
    """Median seconds of a walk copy and of a sibling copy.

    Each trial takes a fresh copy of ``base`` as the source, so that
    source has not been copied yet: its first copy walks its rows, and
    its second starts from the rows the first kept.
    """
    walks, siblings = [], []
    for _ in range(COPY_TRIALS):
        source = base.copy()
        start = time.perf_counter()
        source.copy()
        walks.append(time.perf_counter() - start)
        start = time.perf_counter()
        source.copy()
        siblings.append(time.perf_counter() - start)
    return statistics.median(walks), statistics.median(siblings)


def _percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


def _stats(costs: list[float]) -> dict:
    total = sum(costs)
    return {
        "events": len(costs),
        "total_ms": round(1_000.0 * total, 3),
        "mean_event_ms": round(1_000.0 * total / len(costs), 4),
        "p95_event_ms": round(1_000.0 * _percentile(costs, 0.95), 4),
        "events_per_sec": round(len(costs) / total, 1) if total else float("inf"),
    }


def test_bench_churn():
    base = _scale_graph()
    events = _event_stream(base)
    walk_s, sibling_s = _copy_seconds(base)
    copy_speedup = walk_s / sibling_s if sibling_s else float("inf")

    incremental_graph = base.copy()
    incremental_graph.compact()  # warm: deltas are logged from here on
    assert ChannelGraph.incremental_compact
    incremental_costs = _replay(incremental_graph, events)

    rebuild_graph = base.copy()
    rebuild_graph.compact()
    try:
        ChannelGraph.incremental_compact = False
        rebuild_costs = _replay(rebuild_graph, events)
    finally:
        ChannelGraph.incremental_compact = True

    # Both paths must land on the same topology, and the incremental
    # snapshot must be observably identical to a from-scratch rebuild.
    final = incremental_graph.compact()
    rebuilt = CompactTopology.from_adjacency(
        incremental_graph.adjacency(), version=incremental_graph.topology_version
    )
    assert list(final) == list(rebuilt) == list(rebuild_graph.compact())
    check_rng = random.Random(SEED + 3)
    for node in check_rng.sample(list(rebuilt), 200):
        assert final[node] == rebuilt[node] == rebuild_graph.compact()[node]
    for _ in range(5):
        source = check_rng.choice(incremental_graph.nodes)
        assert bfs_distances(final, source) == bfs_distances(rebuilt, source)

    incremental = _stats(incremental_costs)
    rebuild = _stats(rebuild_costs)
    speedup = (
        rebuild["total_ms"] / incremental["total_ms"]
        if incremental["total_ms"]
        else float("inf")
    )

    report = {
        "benchmark": "churn_incremental_maintenance",
        "smoke": SMOKE,
        "scenario": "scale-churn substrate (ba-scale topology)",
        "topology": {
            "model": "barabasi-albert",
            "nodes": N_NODES,
            "channels": base.num_channels(),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "events": {
            "total": len(events),
            "opens": sum(
                1 for e in events if e.kind is ChannelEventType.OPEN
            ),
            "closes": sum(
                1 for e in events if e.kind is ChannelEventType.CLOSE
            ),
            "bfs_every": BFS_EVERY,
        },
        "incremental": incremental,
        "full_rebuild": rebuild,
        "events_per_sec_speedup": round(speedup, 2),
        "copy": {
            "trials": COPY_TRIALS,
            "walk_ms": round(1_000.0 * walk_s, 4),
            "sibling_ms": round(1_000.0 * sibling_s, 4),
            "sibling_speedup": round(copy_speedup, 2),
        },
        "equivalence_checked": True,
    }
    save_timed_snapshot(BENCH_JSON, report)

    body = "\n".join(
        [
            f"topology: BA n={N_NODES} channels={base.num_channels()}"
            + (" [SMOKE]" if SMOKE else ""),
            f"events: {len(events)} (alternating close/open, BFS every "
            f"{BFS_EVERY})",
            f"incremental:  {incremental['total_ms']:9.1f} ms total  "
            f"{incremental['mean_event_ms']:8.3f} ms/event  "
            f"{incremental['events_per_sec']:9.1f} events/s",
            f"full rebuild: {rebuild['total_ms']:9.1f} ms total  "
            f"{rebuild['mean_event_ms']:8.3f} ms/event  "
            f"{rebuild['events_per_sec']:9.1f} events/s",
            f"events/sec speedup: {speedup:.1f}x",
            f"graph copy (median of {COPY_TRIALS}): walk "
            f"{1_000.0 * walk_s:.3f} ms  sibling {1_000.0 * sibling_s:.3f} ms"
            f"  ({copy_speedup:.1f}x)",
        ]
    )
    save_result(
        "churn",
        "Incremental topology maintenance under churn",
        body,
        timed=True,
    )

    # The acceptance contract: >= 3x events/sec at 10k-node scale, and
    # a sibling copy >= 3x faster than a walk.  The smoke run (small
    # graph, CI) only pins the direction of both in-run ratios:
    # incremental upkeep must not cost more than rebuilding, nor a
    # sibling copy more than a walk.
    if SMOKE:
        assert incremental["total_ms"] <= rebuild["total_ms"], report
        assert sibling_s <= walk_s, report
    else:
        assert speedup >= 3.0, report
        assert copy_speedup >= 3.0, report
