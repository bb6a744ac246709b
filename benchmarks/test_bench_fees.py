"""Fee-market benchmark: scheme fee economics under BOLT #7 pricing.

Runs the three registered fee-market scenarios (fee-market,
hub-pricing, ripple-fees — uniform market, hub oligopoly, paper-mix
rates) across the four paper schemes and >= 3 seeds at benchmark
scale, then asserts the qualitative fee claims:

* every scheme pays fees on every priced scenario (the market is live,
  not a no-op), and the fee metrics are internally consistent — no
  single node earns more than all senders paid together;
* surge pricing extracts revenue from fee-blind routing: against a
  decay-only control (sensitivity 0, same decay, topology, workload,
  and seeds — so every rate trajectory is pointwise dominated by the
  surging market's) every fee-blind scheme pays strictly more total
  fees under hub-pricing and never pays the top earner less;
* pricing does not overturn the paper's headline: Flash still
  delivers more volume than Shortest Path on every market (its
  intra-scheme fee optimization vs no optimization is Fig 9's claim,
  asserted at matched paths by ``test_bench_fig09_fee_optimization``).

Under ``BENCH_RECORD=1`` writes machine-readable ``BENCH_fees.json`` at
the repo root (canonical serialization, like ``BENCH_resilience.json``);
scenario definitions in ``docs/SCENARIOS.md``.  Set ``BENCH_SMOKE=1`` for the
CI-scale version — same scenarios and assertions on smaller workloads.
"""

from __future__ import annotations

import os
import pathlib
import platform

from _common import save_result, save_timed_snapshot

import repro.scenarios as scenarios
from repro.sim.factories import paper_benchmark_factories
from repro.sim.metrics import FEE_FAMILY
from repro.sim.runner import run_comparison

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

N_NODES = 150 if SMOKE else 800  # fee-market's synthetic topology only
N_TRANSACTIONS = 120 if SMOKE else 400
SEEDS = 3
BASE_SEED = 20_260_808

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fees.json"

#: The fee-market scenario family, in report order.
MARKETS = ("fee-market", "hub-pricing", "ripple-fees")


#: Dynamics overrides that disable the surge term but keep the decay —
#: the control market whose rate trajectories are pointwise dominated
#: by the real (surging) market's, whatever the load pattern.
DECAY_ONLY = {"sensitivity": 0.0}

#: The paper schemes that route without looking at fees; only these
#: are guaranteed to pay more when every rate can only be higher.
#: Flash optimizes fees and may legitimately route around a surge.
FEE_BLIND = ("Shortest Path", "SpeedyMurmurs", "Spider")


def _bench_factory(scenario, dynamics_overrides=None):
    """The scenario's seeded builder at benchmark scale."""
    topo_entry = scenarios.TOPOLOGIES.get(scenario.topology)
    topology_overrides = {}
    if any(spec.name == "nodes" for spec in topo_entry.params):
        topology_overrides["nodes"] = N_NODES
    return scenario.factory(
        topology_overrides=topology_overrides,
        workload_overrides={"transactions": N_TRANSACTIONS},
        dynamics_overrides=dynamics_overrides,
    )


def _run_market(name: str, dynamics_overrides=None):
    """scheme -> averaged fee metrics (+ success) for one market."""
    scenario = scenarios.get_scenario(name)
    comparison = run_comparison(
        _bench_factory(scenario, dynamics_overrides),
        paper_benchmark_factories(),
        runs=SEEDS,
        base_seed=BASE_SEED,
        engine=scenario.engine,
        engine_params=scenario.engine_params,
    )
    return {
        scheme: {
            "success_ratio": metrics.success_ratio,
            "success_volume": metrics.success_volume,
            **{
                field: getattr(metrics, field)
                for field in FEE_FAMILY.fields
            },
        }
        for scheme, metrics in comparison.metrics.items()
    }


def _run_markets() -> dict[str, dict[str, dict[str, float]]]:
    """scenario -> scheme -> averaged fee metrics (+ success)."""
    return {name: _run_market(name) for name in MARKETS}


def _fee_rate_paid(metrics: dict[str, float]) -> float:
    """Fees paid per unit of successfully delivered volume."""
    return metrics["fee_paid_total"] / max(metrics["success_volume"], 1e-12)


def test_bench_fees():
    results = _run_markets()

    # Sanity + consistency: the market is live for every scheme on
    # every scenario, and no hub out-earns the whole sender population.
    for name, by_scheme in results.items():
        for scheme, metrics in by_scheme.items():
            assert 0.0 <= metrics["success_ratio"] <= 1.0, (name, scheme)
            assert metrics["fee_paid_total"] > 0.0, (name, scheme)
            assert metrics["fee_p50"] >= 0.0, (name, scheme)
            assert 0.0 < metrics["hub_revenue"] <= metrics[
                "fee_paid_total"
            ] + 1e-9, (name, scheme)

    # Controlled A/B on the oligopoly: identical topology, workload,
    # and seeds; surge term on vs off.  Fee-blind schemes must pay
    # strictly more when the loaded hub corridors can surge (Flash is
    # exempt: its fee optimization may route around the surge).
    control = _run_market("hub-pricing", dynamics_overrides=DECAY_ONLY)
    for scheme in FEE_BLIND:
        surged = results["hub-pricing"][scheme]
        decayed = control[scheme]
        assert surged["fee_paid_total"] > decayed["fee_paid_total"], (
            scheme,
            surged["fee_paid_total"],
            decayed["fee_paid_total"],
        )
        # Same routes, pointwise-dominated rates: per-node revenue can
        # only go up, so the top earner's take can only go up.
        assert surged["hub_revenue"] >= decayed["hub_revenue"] * (
            1.0 - 1e-9
        ), (scheme, surged["hub_revenue"], decayed["hub_revenue"])

    # Fees do not overturn the paper's headline ranking: Flash keeps
    # out-delivering Shortest Path on every priced market.  (It pays a
    # higher effective fee rate doing so — multipath splits cross more
    # hops — which is exactly the revenue-vs-success tradeoff the
    # family exists to expose.)
    for name, by_scheme in results.items():
        assert (
            by_scheme["Flash"]["success_volume"]
            > by_scheme["Shortest Path"]["success_volume"]
        ), (name, by_scheme)

    report = {
        "benchmark": "fee_market_scheme_economics",
        "smoke": SMOKE,
        "nodes": N_NODES,
        "transactions": N_TRANSACTIONS,
        "seeds": SEEDS,
        "base_seed": BASE_SEED,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "markets": {
            name: {
                "dynamics_params": dict(
                    scenarios.get_scenario(name).dynamics_params
                ),
                "schemes": by_scheme,
            }
            for name, by_scheme in results.items()
        },
        "controls": {"hub-pricing-decay-only": control},
        "claims_checked": [
            "every_scheme_pays_fees",
            "hub_revenue_bounded_by_total",
            "surge_pricing_taxes_fee_blind_schemes",
            "flash_outdelivers_shortest_path_under_fees",
        ],
    }
    save_timed_snapshot(BENCH_JSON, report)

    lines = [
        f"scale: nodes<={N_NODES} txns={N_TRANSACTIONS} seeds={SEEDS}"
        + (" [SMOKE]" if SMOKE else "")
    ]
    for name, by_scheme in results.items():
        lines.append(f"-- {name}")
        for scheme, metrics in by_scheme.items():
            share = metrics["hub_revenue"] / metrics["fee_paid_total"]
            lines.append(
                f"   {scheme:<14} "
                f"succ={100 * metrics['success_ratio']:5.1f}% "
                f"fees={metrics['fee_paid_total']:8.3f} "
                f"rate={100 * _fee_rate_paid(metrics):5.2f}% "
                f"p50={metrics['fee_p50']:.4f} "
                f"hub={metrics['hub_revenue']:7.3f} "
                f"({100 * share:4.1f}% share)"
            )
    save_result(
        "fees", "Scheme fee economics under dynamic BOLT #7 markets", "\n".join(lines)
    )
