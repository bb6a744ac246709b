"""Streaming workloads are observably equivalent to list workloads.

The streaming path's contract (docs/ARCHITECTURE.md, "Streaming
workloads") is differential: feeding any engine a
:class:`WorkloadStream` of the exact transaction sequence a list-backed
:class:`Workload` holds must produce

* **identical** headline metrics — success counts/ratios, volumes,
  probe and payment messages, retries, timeouts, and the per-class
  (mice/elephant) breakdown when the stream carries a
  ``mice_threshold_hint`` (the engines then use the same static cutoff
  the list path computes);
* **near-identical** latency quantiles — the streaming accumulator
  estimates p50/p95 with the P² algorithm, documented accurate to a few
  percent, while the list path sorts exact samples;
* the **same record schema** — ``to_record()`` key sets match, so store
  cells from streaming runs are interchangeable with list-run cells.

Every case runs twice, with the BFS sweeps on the C kernel and on the
reference dict loops (the streaming branch shares the routing kernels,
so sweep identity must survive it), across all three engines.

The residency test closes the loop on the tentpole claim: a
``lightning-day`` smoke slice keeps peak *live* ``Transaction`` count
bounded by the engine's lookahead window, not the stream length —
measured with a ``weakref.WeakSet`` (membership drops with the last
reference; transactions sit in no reference cycles) and cross-checked
with ``gc.collect()`` draining the set entirely after the run.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.network.dynamics import churn_events_for, run_dynamic_simulation
from repro.network.topology import ripple_like_topology
from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
from repro.sim.engine import run_simulation
from repro.sim.factories import (
    flash_factory,
    shortest_path_factory,
    speedymurmurs_factory,
)
from repro.traces.generators import (
    generate_ripple_workload,
    stream_ripple_workload,
)
from repro.traces.workload import Workload, WorkloadStream

N_TRANSACTIONS = 400
MICE_FRACTION = 0.9

#: P² quantile estimates (and the derived mean) carry the estimator's
#: documented tolerance; every other recorded metric is a running sum
#: or count and must match exactly.  Concurrent latencies are strongly
#: discrete (clustered at multiples of the hop round-trip,
#: 2 * HOP_LATENCY), and P² is documented to settle between adjacent
#: modes there — so the absolute floor is one inter-mode gap.
QUANTILE_FIELDS = ("latency_p50", "latency_p95", "latency_mean")
HOP_LATENCY = 0.2
QUANTILE_TOLERANCE_ABS = 2 * HOP_LATENCY
QUANTILE_TOLERANCE_REL = 0.15

pytestmark = pytest.mark.usefixtures("sweeps")


def _graph(seed: int):
    return ripple_like_topology(
        random.Random(seed), n_nodes=60, n_edges=360, capacity_median=200.0
    )


def _twins(seed: int) -> tuple[Workload, WorkloadStream]:
    """A list workload and a re-streamable stream of the same sequence.

    Both draw from ``random.Random(seed)``, so the generator-twin
    guarantee (identical RNG draw order) makes them element-identical;
    the stream carries the list's exact mice cutoff as its hint so the
    engines classify identically.
    """
    workload = generate_ripple_workload(
        random.Random(seed), list(range(60)), N_TRANSACTIONS
    )
    stream = WorkloadStream(
        lambda: stream_ripple_workload(
            random.Random(seed), list(range(60)), N_TRANSACTIONS
        ),
        length=N_TRANSACTIONS,
        mice_threshold_hint=workload.threshold_for_mice_fraction(
            MICE_FRACTION
        ),
    )
    return workload, stream


def _assert_equivalent(list_result, stream_result, ordered=True) -> None:
    """``ordered=False`` for the concurrent engine: its accumulator
    observes records in payment-*completion* order while the list path
    re-sums them in workload order, so float sums may differ in the last
    few ulps (counts and ratios of counts still match exactly)."""
    exact = list_result.to_record()
    streamed = stream_result.to_record()
    # Same record schema: streaming store cells interchange with list cells.
    assert set(exact) == set(streamed)
    for field in sorted(exact):
        if field in QUANTILE_FIELDS:
            assert abs(streamed[field] - exact[field]) <= max(
                QUANTILE_TOLERANCE_ABS,
                QUANTILE_TOLERANCE_REL * exact[field],
            ), (field, exact[field], streamed[field])
        elif ordered:
            assert exact[field] == streamed[field], (
                field,
                exact[field],
                streamed[field],
            )
        else:
            assert streamed[field] == pytest.approx(
                exact[field], rel=1e-9, abs=1e-9
            ), (field, exact[field], streamed[field])


FACTORIES = (
    ("flash", flash_factory),
    ("speedymurmurs", speedymurmurs_factory),
    ("shortest-path", shortest_path_factory),
)


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("scheme,factory_fn", FACTORIES)
class TestStreamingEquivalence:
    def test_sequential_engine(self, scheme, factory_fn, seed):
        workload, stream = _twins(seed)
        assert stream.materialize().transactions == workload.transactions
        list_result = run_simulation(
            _graph(seed), factory_fn(), workload, rng=random.Random(42)
        )
        stream_result = run_simulation(
            _graph(seed), factory_fn(), stream, rng=random.Random(42)
        )
        _assert_equivalent(list_result, stream_result)

    def test_dynamic_engine(self, scheme, factory_fn, seed):
        workload, stream = _twins(seed)
        horizon = workload[len(workload) - 1].time
        events = churn_events_for(
            _graph(seed), random.Random(seed + 1), horizon, preset="hourly"
        )
        list_result = run_dynamic_simulation(
            _graph(seed), factory_fn(), workload, events,
            rng=random.Random(42),
        )
        stream_result = run_dynamic_simulation(
            _graph(seed), factory_fn(), stream, events,
            rng=random.Random(42),
        )
        _assert_equivalent(list_result, stream_result)

    def test_concurrent_engine(self, scheme, factory_fn, seed):
        workload, stream = _twins(seed)
        config = ConcurrencyConfig.from_params(
            {"load": 20.0, "hop_latency": HOP_LATENCY, "timeout": 30.0,
             "max_retries": 1, "retry_delay": 2.0}
        )
        list_result = run_concurrent_simulation(
            _graph(seed), factory_fn(), workload,
            rng=random.Random(42), config=config,
        )
        stream_result = run_concurrent_simulation(
            _graph(seed), factory_fn(), stream,
            rng=random.Random(42), config=config,
        )
        _assert_equivalent(list_result, stream_result, ordered=False)


class TestBoundedResidency:
    """A lightning-day smoke slice holds O(window) transactions live."""

    def test_peak_live_transactions_tracks_lookahead(self):
        import repro.scenarios  # populate the catalog
        from repro.scenarios.registry import get_scenario

        n, lookahead = 4_000, 64
        factory = get_scenario("lightning-day").factory(
            workload_overrides={"transactions": n}
        )
        graph, stream = factory(random.Random(5))
        assert isinstance(stream, WorkloadStream) and stream.restartable

        live: weakref.WeakSet = weakref.WeakSet()
        peak = 0

        def probed():
            nonlocal peak
            for transaction in iter(stream):
                live.add(transaction)
                peak = max(peak, len(live))
                yield transaction

        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            WorkloadStream(probed, length=n),
            rng=random.Random(42),
            config=ConcurrencyConfig.from_params(
                {"load": 1.0, "hop_latency": 0.05, "timeout": 5.0,
                 "max_retries": 0}
            ),
            lookahead=lookahead,
        )
        assert result.transactions == n
        # O(window): the lookahead's pre-fed payments plus the few holds
        # in flight — never O(n).
        assert peak <= 4 * lookahead, peak
        assert peak < n / 10, peak
        # Nothing leaks past the run: the engine holds no transaction
        # references once every payment settled.
        gc.collect()
        assert len(live) == 0
