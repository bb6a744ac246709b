"""Routing micro-benchmarks: the perf trajectory of the hot path.

Times the primitives every figure benchmark leans on — BFS, Yen's
k-shortest paths, routing-table construction, end-to-end simulation
throughput, and the parallel multi-run engine — on a ~1000-node
scale-free topology, against *legacy* reference implementations (the
dict-based algorithms this repo shipped before the compact-topology
rewrite, preserved verbatim below).

Under ``BENCH_RECORD=1``, writes machine-readable ``BENCH_routing.json``
at the repo root so
future PRs can track speedups/regressions with
``python benchmarks/compare_bench.py``.

Set ``BENCH_SMOKE=1`` to run a scaled-down version (CI smoke).
"""

from __future__ import annotations

import os
import pathlib
import platform
import random
import time
from collections import deque

from _common import save_result, save_timed_snapshot

from repro.core.routing_table import RoutingTable
from repro.network.compact import CompactTopology
from repro.network.paths import bfs_shortest_path, yen_k_shortest_paths
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    grid_topology,
    uniform_sampler,
)
from repro.sim.factories import flash_factory, shortest_path_factory
from repro.sim.runner import run_comparison
from repro.traces.generators import generate_ripple_workload

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

N_NODES = 300 if SMOKE else 1_000
BA_ATTACH = 3
BFS_PAIRS = 100 if SMOKE else 400
YEN_PAIRS = 15 if SMOKE else 60
YEN_K = 4
TABLE_RECEIVERS = 30 if SMOKE else 120
#: The vectorized sweeps amortize ndarray call overhead over frontier
#: width, so they are measured on a larger topology than the single-pair
#: benchmarks: ~1x at n=1000 but 1.4-1.8x at n=5000 on one core.  The
#: smoke size is below VECTOR_SWEEP_MIN_NODES, so there both timings run
#: the serial sweeps and the gate is skipped.
SWEEP_NODES = 400 if SMOKE else 5_000
SWEEP_SOURCES = 10 if SMOKE else 40
PARALLEL_RUNS = 5
PARALLEL_WORKERS = 4

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_routing.json"


# ---------------------------------------------------------------------------
# Legacy reference implementations (pre-compact-topology, kept verbatim so
# the speedup baseline cannot drift as the library evolves).
# ---------------------------------------------------------------------------


def _legacy_bfs(adjacency, source, target, edge_ok=None, blocked_nodes=None):
    if source == target:
        return [source]
    if source not in adjacency or target not in adjacency:
        return None
    blocked = blocked_nodes or set()
    parent = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in parent or v in blocked:
                continue
            if edge_ok is not None and not edge_ok(u, v):
                continue
            parent[v] = u
            if v == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(v)
    return None


def _legacy_yen(adjacency, source, target, k, edge_ok=None):
    if k <= 0:
        return []
    first = _legacy_bfs(adjacency, source, target, edge_ok=edge_ok)
    if first is None:
        return []
    paths = [first]
    candidates = {}

    def key_repr(key):
        return tuple(repr(node) for node in key)

    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            removed = set()
            for accepted in paths:
                if accepted[: i + 1] == root and len(accepted) > i + 1:
                    removed.add((accepted[i], accepted[i + 1]))
            blocked = set(root[:-1])

            def spur_edge_ok(u, v):
                if (u, v) in removed:
                    return False
                return edge_ok is None or edge_ok(u, v)

            spur = _legacy_bfs(
                adjacency,
                spur_node,
                target,
                edge_ok=spur_edge_ok,
                blocked_nodes=blocked,
            )
            if spur is not None:
                candidate = root[:-1] + spur
                if len(set(candidate)) == len(candidate):
                    candidates.setdefault(tuple(candidate), candidate)
        if not candidates:
            break
        best = min(candidates, key=lambda key: (len(key), key_repr(key)))
        paths.append(candidates.pop(best))
    return paths


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - start) * 1_000.0


def _scale_free():
    rng = random.Random(20_260_730)
    edges = barabasi_albert_edges(N_NODES, BA_ATTACH, rng)
    graph = build_channel_graph(edges, uniform_sampler(100.0, 200.0), rng)
    return graph, rng


def _scenario(rng_seeded):
    graph = grid_topology(5, 5, balance=100.0)
    workload = generate_ripple_workload(rng_seeded, graph.nodes, 120)
    return graph, workload


def test_bench_perf_routing(monkeypatch):
    graph, rng = _scale_free()
    adjacency = graph.adjacency()
    compact = graph.compact()
    pairs = [
        (rng.randrange(N_NODES), rng.randrange(N_NODES))
        for _ in range(BFS_PAIRS)
    ]

    # Warm up both code paths (first-touch allocation, lazy caches).
    for a, b in pairs[:20]:
        _legacy_bfs(adjacency, a, b)
        bfs_shortest_path(compact, a, b)

    legacy_paths, legacy_bfs_ms = _timed(
        lambda: [_legacy_bfs(adjacency, a, b) for a, b in pairs]
    )
    fast_paths, fast_bfs_ms = _timed(
        lambda: [bfs_shortest_path(compact, a, b) for a, b in pairs]
    )
    # Fast paths must be exactly as short and valid, pair for pair.
    for (a, b), slow, fast in zip(pairs, legacy_paths, fast_paths):
        assert (slow is None) == (fast is None)
        if fast is not None:
            assert len(fast) == len(slow)
            assert fast[0] == a and fast[-1] == b
            assert all(v in graph.compact()[u] for u, v in zip(fast, fast[1:]))

    yen_pairs = pairs[:YEN_PAIRS]
    legacy_yens, legacy_yen_ms = _timed(
        lambda: [_legacy_yen(adjacency, a, b, YEN_K) for a, b in yen_pairs]
    )
    fast_yens, fast_yen_ms = _timed(
        lambda: [yen_k_shortest_paths(compact, a, b, YEN_K) for a, b in yen_pairs]
    )
    for slow, fast in zip(legacy_yens, fast_yens):
        assert [len(p) for p in slow] == [len(p) for p in fast]

    # Routing-table construction: legacy = one Yen per receiver on the
    # mapping; new = per-source BFS layer + seeded Yen on the compact form.
    sender = 0
    receivers = [rng.randrange(N_NODES) for _ in range(TABLE_RECEIVERS)]
    _, legacy_table_ms = _timed(
        lambda: [
            _legacy_yen(adjacency, sender, receiver, YEN_K)
            for receiver in receivers
        ]
    )
    table = RoutingTable(m=YEN_K)
    _, fast_table_ms = _timed(
        lambda: [
            table.lookup(sender, receiver, compact) for receiver in receivers
        ]
    )

    # End-to-end simulation throughput (no legacy twin exists in-process;
    # tracked as an absolute number for trend comparison across PRs).
    factories = {
        "Flash": flash_factory(k=5, m=2),
        "Shortest Path": shortest_path_factory(),
    }
    run_comparison(_scenario, factories, runs=1, base_seed=3)  # warm-up
    serial_result, serial_ms = _timed(
        lambda: run_comparison(
            _scenario, factories, runs=PARALLEL_RUNS, base_seed=3
        )
    )
    parallel_result, parallel_ms = _timed(
        lambda: run_comparison(
            _scenario,
            factories,
            runs=PARALLEL_RUNS,
            base_seed=3,
            workers=PARALLEL_WORKERS,
        )
    )
    # Parallel execution must be metric-identical to serial.
    for name in factories:
        assert serial_result[name] == parallel_result[name]
    transactions = PARALLEL_RUNS * len(factories) * 120

    # Sweep kernels: the vectorized full sweeps against the serial ones
    # on one snapshot, timed with the size threshold above the graph
    # (serial) and at its real value (vectorized at full scale).
    # Single-pair searches always run the serial kernels (vectorizing
    # them measured 10-20x slower), so only the sweeps are timed; the
    # identity asserts pin the distance dict's *insertion order* and the
    # tree's discovery-order array too, both BFS discovery order.  Runs
    # last: its larger graph would otherwise skew the allocator state
    # the end-to-end timings above are recorded under.
    threshold = CompactTopology.VECTOR_SWEEP_MIN_NODES
    sweep_rng = random.Random(20_260_808)
    sweep_edges = barabasi_albert_edges(SWEEP_NODES, BA_ATTACH, sweep_rng)
    sweep_graph = build_channel_graph(
        sweep_edges, uniform_sampler(100.0, 200.0), sweep_rng
    )
    sweep_snap = CompactTopology.from_adjacency(sweep_graph.adjacency())
    sweep_sources = [
        sweep_rng.randrange(SWEEP_NODES) for _ in range(SWEEP_SOURCES)
    ]

    def _best_of(fn, repeats=3):
        # Sweep timings are ~tens of ms, small enough for scheduler
        # noise on a busy core to flip the gate; min-of-3 is the
        # standard microbenchmark noise floor.
        value, best_ms = _timed(fn)
        for _ in range(repeats - 1):
            _, ms = _timed(fn)
            best_ms = min(best_ms, ms)
        return value, best_ms

    def _time_sweeps():
        # Warm the lazy vector mirrors and scratch first.
        sweep_snap.distances_idx(sweep_sources[0])
        sweep_snap.bfs_tree(sweep_sources[0])
        dists, dist_ms = _best_of(
            lambda: [sweep_snap.distances_idx(s) for s in sweep_sources]
        )
        trees, tree_ms = _best_of(
            lambda: [sweep_snap.bfs_tree(s) for s in sweep_sources]
        )
        return dists, dist_ms, trees, tree_ms

    with monkeypatch.context() as patch:
        patch.setattr(
            CompactTopology, "VECTOR_SWEEP_MIN_NODES", SWEEP_NODES + 1
        )
        serial_dists, serial_dist_ms, serial_trees, serial_tree_ms = (
            _time_sweeps()
        )
    sized_dists, sized_dist_ms, sized_trees, sized_tree_ms = _time_sweeps()
    for d_serial, d_sized in zip(serial_dists, sized_dists):
        assert list(d_serial.items()) == list(d_sized.items())
    for t_serial, t_sized in zip(serial_trees, sized_trees):
        for a_serial, a_sized in zip(t_serial, t_sized):
            assert a_serial.tolist() == a_sized.tolist()
    dist_speedup = (
        serial_dist_ms / sized_dist_ms if sized_dist_ms else float("inf")
    )
    tree_speedup = (
        serial_tree_ms / sized_tree_ms if sized_tree_ms else float("inf")
    )
    sweep_report = {
        "sweep_nodes": SWEEP_NODES,
        "sweep_sources": SWEEP_SOURCES,
        "vector_sweep_min_nodes": threshold,
        "single_pair": "serial",
        "distances": {
            "serial_ms": round(serial_dist_ms, 3),
            "by_size_ms": round(sized_dist_ms, 3),
            "speedup": round(dist_speedup, 2),
        },
        "tree_parents": {
            "serial_ms": round(serial_tree_ms, 3),
            "by_size_ms": round(sized_tree_ms, 3),
            "speedup": round(tree_speedup, 2),
        },
    }

    bfs_speedup = legacy_bfs_ms / fast_bfs_ms if fast_bfs_ms else float("inf")
    yen_speedup = legacy_yen_ms / fast_yen_ms if fast_yen_ms else float("inf")
    combined_speedup = (legacy_bfs_ms + legacy_yen_ms) / (
        fast_bfs_ms + fast_yen_ms
    )
    table_speedup = (
        legacy_table_ms / fast_table_ms if fast_table_ms else float("inf")
    )
    workers_speedup = serial_ms / parallel_ms if parallel_ms else float("inf")

    report = {
        "benchmark": "routing_hot_path",
        "smoke": SMOKE,
        "topology": {
            "model": "barabasi-albert",
            "nodes": N_NODES,
            "channels": graph.num_channels(),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "bfs": {
            "pairs": len(pairs),
            "legacy_ms": round(legacy_bfs_ms, 3),
            "compact_ms": round(fast_bfs_ms, 3),
            "speedup": round(bfs_speedup, 2),
        },
        "yen": {
            "pairs": len(yen_pairs),
            "k": YEN_K,
            "legacy_ms": round(legacy_yen_ms, 3),
            "compact_ms": round(fast_yen_ms, 3),
            "speedup": round(yen_speedup, 2),
        },
        "bfs_plus_yen_speedup": round(combined_speedup, 2),
        "routing_table_build": {
            "receivers": TABLE_RECEIVERS,
            "legacy_ms": round(legacy_table_ms, 3),
            "compact_ms": round(fast_table_ms, 3),
            "speedup": round(table_speedup, 2),
        },
        "end_to_end": {
            "runs": PARALLEL_RUNS,
            "transactions": transactions,
            "serial_ms": round(serial_ms, 3),
            "transactions_per_second": round(
                transactions / (serial_ms / 1_000.0), 1
            ),
        },
        "sweep_kernels": sweep_report,
        "parallel_runner": {
            "workers": PARALLEL_WORKERS,
            "cpu_count": os.cpu_count(),
            "serial_ms": round(serial_ms, 3),
            "parallel_ms": round(parallel_ms, 3),
            "speedup": round(workers_speedup, 2),
            "metrics_identical": True,
        },
    }
    save_timed_snapshot(BENCH_JSON, report)

    body = "\n".join(
        [
            f"topology: BA n={N_NODES} channels={graph.num_channels()}"
            + (" [SMOKE]" if SMOKE else ""),
            f"BFS   ({len(pairs)} pairs):  legacy {legacy_bfs_ms:8.1f} ms"
            f"  compact {fast_bfs_ms:8.1f} ms  ({bfs_speedup:.1f}x)",
            f"Yen   ({len(yen_pairs)} pairs k={YEN_K}): legacy "
            f"{legacy_yen_ms:8.1f} ms  compact {fast_yen_ms:8.1f} ms"
            f"  ({yen_speedup:.1f}x)",
            f"BFS+Yen combined speedup: {combined_speedup:.1f}x",
            f"table ({TABLE_RECEIVERS} receivers): legacy "
            f"{legacy_table_ms:8.1f} ms  cached {fast_table_ms:8.1f} ms"
            f"  ({table_speedup:.1f}x)",
            f"end-to-end: {transactions} txns in {serial_ms:.0f} ms "
            f"({transactions / (serial_ms / 1000.0):.0f} txn/s)",
            f"sweeps (n={SWEEP_NODES}, {SWEEP_SOURCES} sources, vectorized"
            f" from n={threshold}): distances {dist_speedup:.2f}x  "
            f"tree-parents {tree_speedup:.2f}x (by size vs serial)",
            f"parallel runner (workers={PARALLEL_WORKERS}, "
            f"cpu_count={os.cpu_count()}): serial {serial_ms:.0f} ms  "
            f"parallel {parallel_ms:.0f} ms  ({workers_speedup:.2f}x)",
        ]
    )
    save_result(
        "perf_routing", "Routing hot-path microbenchmark", body, timed=True
    )

    # The perf contract of the compact rewrite.  Ratios are
    # machine-independent; thresholds leave slack under the measured
    # ~6x (BFS) / ~7x (Yen) so CI noise cannot flip them.
    assert bfs_speedup >= 2.0, report["bfs"]
    assert yen_speedup >= 2.0, report["yen"]
    assert combined_speedup >= 3.0, report
    assert table_speedup >= 2.0, report["routing_table_build"]
    # Vectorized-sweep contract: measured 1.76x (distances) / 1.38x
    # (tree-parents) at n=5000 on one core, growing with n.  Only gated
    # at full scale — smoke graphs are too small to clear the ndarray
    # call overhead reliably, and sit below the threshold anyway.
    if not SMOKE:
        assert dist_speedup >= 1.3, report["sweep_kernels"]
        assert tree_speedup >= 1.1, report["sweep_kernels"]
    # Fork-pool contract: real parallel speedup is only physically
    # possible with >1 core, so the gate is skipped (never faked) on
    # 1-core machines — compare_bench.py mirrors this for snapshots.
    if (os.cpu_count() or 1) > 1 and not SMOKE:
        assert workers_speedup > 1.0, report["parallel_runner"]
