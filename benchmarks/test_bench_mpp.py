"""Multi-part payment benchmark: MPP vs single-path under storm load.

Runs the ``mpp-storm`` scenario (elephant-heavy mixture on a
capacity-starved payment-storm topology, concurrent engine) across the
four paper schemes and >= 3 seeds at benchmark scale, once with
multi-part payments off (single-path control) and once with the
scenario's MPP knobs on, then asserts the qualitative claims:

* the control arm is MPP-free — every MPP metric is exactly zero, so
  the machinery costs nothing when disabled;
* the MPP arm is live on every scheme — elephants fan out into
  multiple concurrently-held parts (1 < parts/payment <= max_parts)
  and the metrics are internally consistent;
* the all-or-nothing guarantee is exercised, not vacuous: aborted
  payments refund sibling holds (partial releases observed somewhere
  in the matrix);
* atomic fan-out does not collapse throughput: each scheme's overall
  success ratio under MPP stays within a small tolerance of its
  single-path control, and the paper's headline ranking (Flash
  out-delivers Shortest Path) survives on both arms.

Under ``BENCH_RECORD=1`` writes machine-readable ``BENCH_mpp.json`` at
the repo root (canonical serialization, like ``BENCH_fees.json``);
scenario definition in
``docs/SCENARIOS.md``, MPP semantics in ``docs/CONCURRENCY.md``.  Set
``BENCH_SMOKE=1`` for the CI-scale version — same arms and assertions
on a smaller workload.
"""

from __future__ import annotations

import os
import pathlib
import platform

from _common import save_result, save_timed_snapshot

import repro.scenarios as scenarios
from repro.sim.factories import paper_benchmark_factories
from repro.sim.metrics import MPP_FAMILY
from repro.sim.runner import run_comparison

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

N_NODES = 60 if SMOKE else 100
N_TRANSACTIONS = 60 if SMOKE else 300
SEEDS = 3
BASE_SEED = 20_260_808

#: How far a scheme's overall success ratio may drop when elephants
#: switch from one hold to several concurrently-held parts.  The
#: guarantee is all-or-nothing settlement, not higher throughput; this
#: bounds the price of atomicity.
SUCCESS_TOLERANCE = 0.10

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_mpp.json"

SCENARIO = "mpp-storm"

#: The two arms: identical topology, workload, engine, and seeds;
#: only the payment structure differs.
ARMS = ("single-path", "mpp")


def _bench_factory(scenario):
    """The scenario's seeded builder at benchmark scale."""
    return scenario.factory(
        topology_overrides={"nodes": N_NODES},
        workload_overrides={"transactions": N_TRANSACTIONS},
    )


def _run_arm(scenario, mpp_params):
    """scheme -> averaged success/latency/MPP metrics for one arm."""
    comparison = run_comparison(
        _bench_factory(scenario),
        paper_benchmark_factories(),
        runs=SEEDS,
        base_seed=BASE_SEED,
        engine=scenario.engine,
        engine_params=scenario.engine_params,
        mpp_params=mpp_params,
    )
    return {
        scheme: {
            "success_ratio": metrics.success_ratio,
            "success_volume": metrics.success_volume,
            "latency_p50": metrics.latency_p50,
            "latency_p95": metrics.latency_p95,
            **{
                field: getattr(metrics, field)
                for field in MPP_FAMILY.fields
            },
        }
        for scheme, metrics in comparison.metrics.items()
    }


def test_bench_mpp():
    scenario = scenarios.get_scenario(SCENARIO)
    assert scenario.mpp_params is not None
    max_parts = float(scenario.mpp_params.get("max_parts", 4))

    results = {
        "single-path": _run_arm(scenario, mpp_params=None),
        "mpp": _run_arm(scenario, mpp_params=scenario.mpp_params),
    }

    # Control arm: disabling MPP leaves no trace — every MPP metric
    # is exactly zero for every scheme.
    for scheme, metrics in results["single-path"].items():
        for field in MPP_FAMILY.fields:
            assert metrics[field] == 0.0, (scheme, field, metrics[field])

    # MPP arm: live and internally consistent on every scheme.
    for scheme, metrics in results["mpp"].items():
        assert metrics["mpp_payments"] > 0.0, scheme
        assert 1.0 < metrics["parts_per_payment"] <= max_parts, (
            scheme,
            metrics["parts_per_payment"],
        )
        assert 0.0 <= metrics["mpp_success_ratio"] <= 1.0, scheme
        assert metrics["partial_release_count"] >= 0.0, scheme

    # The guarantee is exercised somewhere in the matrix: at least one
    # scheme aborts a fan-out and refunds the sibling holds.
    assert (
        sum(m["partial_release_count"] for m in results["mpp"].values())
        > 0.0
    ), results["mpp"]

    # The price of atomicity is bounded: overall success under MPP
    # stays within tolerance of the single-path control.
    for scheme, metrics in results["mpp"].items():
        control = results["single-path"][scheme]
        assert metrics["success_ratio"] >= (
            control["success_ratio"] - SUCCESS_TOLERANCE
        ), (scheme, metrics["success_ratio"], control["success_ratio"])

    # MPP does not overturn the paper's headline ranking on either arm.
    for arm, by_scheme in results.items():
        assert (
            by_scheme["Flash"]["success_volume"]
            > by_scheme["Shortest Path"]["success_volume"]
        ), (arm, by_scheme)

    report = {
        "benchmark": "mpp_vs_single_path_storm",
        "smoke": SMOKE,
        "scenario": SCENARIO,
        "nodes": N_NODES,
        "transactions": N_TRANSACTIONS,
        "seeds": SEEDS,
        "base_seed": BASE_SEED,
        "success_tolerance": SUCCESS_TOLERANCE,
        "mpp_params": dict(scenario.mpp_params),
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "arms": results,
        "claims_checked": [
            "disabled_mpp_leaves_no_trace",
            "mpp_arm_live_on_every_scheme",
            "partial_releases_exercised",
            "atomicity_success_cost_bounded",
            "flash_outdelivers_shortest_path_both_arms",
        ],
    }
    save_timed_snapshot(BENCH_JSON, report)

    lines = [
        f"scale: nodes={N_NODES} txns={N_TRANSACTIONS} seeds={SEEDS}"
        + (" [SMOKE]" if SMOKE else "")
    ]
    for arm in ARMS:
        lines.append(f"-- {arm}")
        for scheme, metrics in results[arm].items():
            lines.append(
                f"   {scheme:<14} "
                f"succ={100 * metrics['success_ratio']:5.1f}% "
                f"vol={metrics['success_volume']:9.1f} "
                f"lat_p95={metrics['latency_p95']:7.2f} "
                f"parts={metrics['parts_per_payment']:.2f} "
                f"mpp_sr={100 * metrics['mpp_success_ratio']:5.1f}% "
                f"refunds={metrics['partial_release_count']:.0f}"
            )
    save_result(
        "mpp",
        "Multi-part vs single-path payments under storm load",
        "\n".join(lines),
    )
