"""Streaming trace-scale benchmark: a ``lightning-day`` slice in
bounded memory.

Measures the two claims the streaming workload path makes:

* **throughput** — the concurrent engine sustains >= 10k transactions/s
  on the shortest-path scheme when fed from a :class:`WorkloadStream`
  (retries off, so the number tracks the engine + routing machinery,
  not the contention profile of a particular load setting);
* **bounded residency** — peak *live* ``Transaction`` count stays
  O(lookahead window), not O(n): the stream is instrumented with a
  ``weakref.WeakSet`` so every transaction still reachable (pre-fed in
  the queue or held in flight) is counted at the moment each new one is
  yielded.

Under ``BENCH_RECORD=1``, writes machine-readable
``BENCH_streaming.json`` at the repo root so
future PRs can track throughput/residency with
``python benchmarks/compare_bench.py``.

Set ``BENCH_SMOKE=1`` to run a scaled-down version (CI smoke).
"""

from __future__ import annotations

import os
import pathlib
import platform
import random
import time
import weakref

from _common import save_result, save_timed_snapshot

import repro.scenarios  # populates the catalog (lightning-day)
from repro.scenarios.registry import get_scenario
from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
from repro.sim.factories import shortest_path_factory
from repro.traces.workload import WorkloadStream

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

N_TRANSACTIONS = 30_000 if SMOKE else 200_000
LOOKAHEAD = 256
#: Retries off: every payment costs exactly one routing attempt, so the
#: throughput number is the engine's, not the retry policy's.
ENGINE_PARAMS = {
    "load": 1.0,
    "hop_latency": 0.05,
    "timeout": 5.0,
    "max_retries": 0,
}
#: Machine-independent floors with slack under the measured ~12k txn/s
#: (full scale, one core); the smoke floor absorbs shared-runner noise.
MIN_TXN_PER_S = 4_000.0 if SMOKE else 10_000.0

BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_streaming.json"
)


class _ResidencyProbe:
    """Counts live (still-referenced) transactions as the stream flows.

    ``WeakSet`` membership drops the moment the engine's last reference
    dies (CPython refcounting — transactions sit in no reference
    cycles), so ``len(live)`` at each yield is the true residency.
    """

    def __init__(self) -> None:
        self.live: weakref.WeakSet = weakref.WeakSet()
        self.peak = 0
        self.yielded = 0

    def wrap(self, stream: WorkloadStream) -> WorkloadStream:
        def source():
            for transaction in iter(stream):
                self.live.add(transaction)
                size = len(self.live)
                if size > self.peak:
                    self.peak = size
                self.yielded += 1
                yield transaction

        return WorkloadStream(source, length=stream.length)


def test_bench_streaming():
    scenario = get_scenario("lightning-day")
    factory = scenario.factory(
        workload_overrides={"transactions": N_TRANSACTIONS}
    )
    graph, stream = factory(random.Random(20_260_808))
    assert isinstance(stream, WorkloadStream) and stream.restartable
    config = ConcurrencyConfig.from_params(ENGINE_PARAMS)

    probe = _ResidencyProbe()
    probed = probe.wrap(stream)
    start = time.perf_counter()
    result = run_concurrent_simulation(
        graph,
        shortest_path_factory(),
        probed,
        rng=random.Random(42),
        config=config,
        lookahead=LOOKAHEAD,
    )
    wall_s = time.perf_counter() - start
    txn_per_s = N_TRANSACTIONS / wall_s if wall_s else float("inf")

    report = {
        "benchmark": "streaming_day",
        "smoke": SMOKE,
        "scenario": "lightning-day",
        "topology": {
            "source": scenario.topology,
            "nodes": graph.num_nodes(),
            "channels": graph.num_channels(),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "engine": dict(ENGINE_PARAMS),
        "throughput": {
            "scheme": "Shortest Path",
            "transactions": N_TRANSACTIONS,
            "wall_s": round(wall_s, 3),
            "transactions_per_second": round(txn_per_s, 1),
            "success_ratio": round(result.success_ratio, 4),
        },
        "residency": {
            "lookahead": LOOKAHEAD,
            "peak_live_transactions": probe.peak,
            "transactions": probe.yielded,
            "peak_over_lookahead": round(probe.peak / LOOKAHEAD, 2),
        },
    }
    save_timed_snapshot(BENCH_JSON, report)

    body = "\n".join(
        [
            f"scenario: lightning-day slice, n={N_TRANSACTIONS}"
            + (" [SMOKE]" if SMOKE else ""),
            f"topology: {scenario.topology} nodes={graph.num_nodes()} "
            f"channels={graph.num_channels()}",
            f"throughput: {N_TRANSACTIONS} txns in {wall_s:.2f} s "
            f"({txn_per_s:,.0f} txn/s, shortest-path, retries off)",
            f"residency: peak {probe.peak} live transactions "
            f"(lookahead {LOOKAHEAD}, {probe.peak / LOOKAHEAD:.2f}x window; "
            f"stream length {probe.yielded})",
        ]
    )
    save_result(
        "streaming", "Streaming lightning-day benchmark", body, timed=True
    )

    # Every transaction must have flowed through the probe exactly once.
    assert probe.yielded == N_TRANSACTIONS
    assert result.transactions == N_TRANSACTIONS
    # The bounded-memory contract: peak residency tracks the lookahead
    # window (pre-fed payments + the in-flight holds the load profile
    # admits), never the stream length.
    assert probe.peak <= 2 * LOOKAHEAD, report["residency"]
    assert probe.peak < N_TRANSACTIONS / 20, report["residency"]
    # The throughput contract of the single-pass path.
    assert txn_per_s >= MIN_TXN_PER_S, report["throughput"]
