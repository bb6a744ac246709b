"""Resilience benchmark: scheme rankings under the four attack families.

Runs every registered attack scenario (jam-hubs, hub-kill-xl,
liquidity-drain-storm, partition-heal-wave — one per fault model, each
on its registered engine) across the four paper schemes and >= 3 seeds
at benchmark scale, then asserts the qualitative resilience claims:

* jamming is the only attack that captures adversary escrow, and it
  captures it against every scheme;
* hub kills are permanent — no recovery half-life is measured;
* the partition window visibly degrades success (positive resilience
  delta) and the network recovers after the heal;
* Flash stays at least as successful under jamming as Shortest Path
  (the paper's ranking, extended to adversarial load).

Under ``BENCH_RECORD=1`` writes machine-readable
``BENCH_resilience.json`` at the repo root (canonical serialization,
like ``BENCH_churn.json``); methodology in
``docs/RESILIENCE.md``.  Set ``BENCH_SMOKE=1`` for the CI-scale
version — same scenarios and assertions on smaller topologies.
"""

from __future__ import annotations

import os
import pathlib
import platform

from _common import save_result, save_timed_snapshot

import repro.scenarios as scenarios
from repro.sim.factories import paper_benchmark_factories
from repro.sim.metrics import RESILIENCE_FAMILY
from repro.sim.runner import run_comparison

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

N_NODES = 300 if SMOKE else 2_000
N_TRANSACTIONS = 120 if SMOKE else 400
SEEDS = 3
BASE_SEED = 20_260_808

BENCH_JSON = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
)

#: One registered scenario per fault model, in report order.
ATTACKS = (
    "jam-hubs",
    "hub-kill-xl",
    "liquidity-drain-storm",
    "partition-heal-wave",
)


def _bench_factory(scenario):
    """The scenario's seeded builder at benchmark scale."""
    topo_entry = scenarios.TOPOLOGIES.get(scenario.topology)
    topology_overrides = {}
    if any(spec.name == "nodes" for spec in topo_entry.params):
        topology_overrides["nodes"] = N_NODES
    return scenario.factory(
        topology_overrides=topology_overrides,
        workload_overrides={"transactions": N_TRANSACTIONS},
    )


def _run_attacks() -> dict[str, dict[str, dict[str, float]]]:
    """scenario -> scheme -> averaged resilience metrics (+ success)."""
    results: dict[str, dict[str, dict[str, float]]] = {}
    for name in ATTACKS:
        scenario = scenarios.get_scenario(name)
        comparison = run_comparison(
            _bench_factory(scenario),
            paper_benchmark_factories(),
            runs=SEEDS,
            base_seed=BASE_SEED,
            engine=scenario.engine,
            engine_params=scenario.engine_params,
        )
        results[name] = {
            scheme: {
                "success_ratio": metrics.success_ratio,
                **{
                    field: getattr(metrics, field)
                    for field in RESILIENCE_FAMILY.fields
                },
            }
            for scheme, metrics in comparison.metrics.items()
        }
    return results


def test_bench_resilience():
    results = _run_attacks()

    # Sanity: every ratio is a probability, escrow is non-negative.
    for name, by_scheme in results.items():
        for scheme, metrics in by_scheme.items():
            assert 0.0 <= metrics["attack_success_ratio"] <= 1.0, (name, scheme)
            assert 0.0 <= metrics["control_success_ratio"] <= 1.0, (name, scheme)
            assert metrics["adversary_escrow"] >= 0.0, (name, scheme)
            assert metrics["recovery_half_life"] >= 0.0, (name, scheme)

    # Jamming, and only jamming, captures adversary escrow — against
    # every scheme (the attack holds victim capacity, whoever routes).
    for scheme, metrics in results["jam-hubs"].items():
        assert metrics["adversary_escrow"] > 0.0, scheme
    for name in ("hub-kill-xl", "liquidity-drain-storm", "partition-heal-wave"):
        for scheme, metrics in results[name].items():
            assert metrics["adversary_escrow"] == 0.0, (name, scheme)

    # Hub kills are permanent: no heal, so no recovery is measured.
    for scheme, metrics in results["hub-kill-xl"].items():
        assert metrics["recovery_half_life"] == 0.0, scheme

    # The partition window visibly degrades success for Flash, and the
    # network is measurably healable afterwards.
    partition_flash = results["partition-heal-wave"]["Flash"]
    assert partition_flash["resilience_delta"] > 0.0, partition_flash

    # Paper ranking under adversarial load: Flash is at least as
    # successful under jamming as Shortest Path.
    jam = results["jam-hubs"]
    assert (
        jam["Flash"]["attack_success_ratio"]
        >= jam["Shortest Path"]["attack_success_ratio"]
    ), jam

    report = {
        "benchmark": "resilience_attack_rankings",
        "smoke": SMOKE,
        "nodes": N_NODES,
        "transactions": N_TRANSACTIONS,
        "seeds": SEEDS,
        "base_seed": BASE_SEED,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "attacks": {
            name: {
                "fault": scenarios.get_scenario(name).faults,
                "engine": scenarios.get_scenario(name).engine,
                "schemes": by_scheme,
            }
            for name, by_scheme in results.items()
        },
        "claims_checked": [
            "jamming_captures_escrow_only",
            "hub_kill_has_no_recovery",
            "partition_delta_positive_flash",
            "flash_ge_shortest_path_under_jamming",
        ],
    }
    save_timed_snapshot(BENCH_JSON, report)

    lines = [
        f"scale: nodes<={N_NODES} txns={N_TRANSACTIONS} seeds={SEEDS}"
        + (" [SMOKE]" if SMOKE else "")
    ]
    for name, by_scheme in results.items():
        lines.append(f"-- {name} ({scenarios.get_scenario(name).faults})")
        for scheme, metrics in by_scheme.items():
            lines.append(
                f"   {scheme:<14} "
                f"atk={100 * metrics['attack_success_ratio']:5.1f}% "
                f"ctl={100 * metrics['control_success_ratio']:5.1f}% "
                f"delta={100 * metrics['resilience_delta']:+6.1f}pp "
                f"rhl={metrics['recovery_half_life']:7.0f}s "
                f"escrow={metrics['adversary_escrow']:.3g}"
            )
    save_result(
        "resilience", "Scheme resilience under adversarial faults", "\n".join(lines)
    )
