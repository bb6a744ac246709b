"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation.  Each returns a
plain-data result object with a ``format()`` method producing the same
rows/series the paper plots, so the benchmark harness (and the examples)
can print paper-shaped output.

The simulation drivers (Figs 6-11) take a registered
:class:`~repro.scenarios.Scenario`, usually ``ripple-default`` or
``lightning-default``, and layer the capacity scale (its topology's
``scale``) and the payment count (its workload's ``transactions``) over
it through :meth:`~repro.scenarios.Scenario.factory`.  The network size
is the scenario's own, so the identical driver runs at benchmark scale
or, with ``dataclasses.replace(scenario, topology_params=...)``, at
paper scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.scenarios import Scenario
from repro.sim.factories import (
    flash_all_elephant_factory,
    flash_factory,
    paper_benchmark_factories,
    spider_factory,
)
from repro.sim.metrics import AveragedMetrics
from repro.sim.results import format_series, format_table
from repro.sim.runner import ScenarioFactory, run_comparison, sweep
from repro.traces.analysis import (
    SizeSummary,
    recurring_fraction_per_day,
    top_k_receiver_share_per_day,
)
from repro.traces.distributions import (
    bitcoin_size_distribution,
    ripple_size_distribution,
)
from repro.traces.generators import generate_multiday_trace
from repro.traces.workload import percentile


# ---------------------------------------------------------------- Fig 3 / 4


@dataclass(frozen=True)
class Fig3Result:
    """Payment-size CDF statistics for both traces."""

    ripple: SizeSummary
    bitcoin: SizeSummary

    def format(self) -> str:
        rows = [
            ["Ripple (USD)", self.ripple.median, self.ripple.p90,
             f"{100 * self.ripple.top_decile_volume_share:.1f}%"],
            ["Bitcoin (satoshi)", self.bitcoin.median, self.bitcoin.p90,
             f"{100 * self.bitcoin.top_decile_volume_share:.1f}%"],
        ]
        return format_table(
            ["trace", "median", "p90", "top-10% volume share"], rows
        )


def fig3_size_cdfs(n_samples: int = 40_000, seed: int = 0) -> Fig3Result:
    """Fig 3: payment size distributions (paper: median $4.8 / 1.293e6 sat,
    top decile carrying 94.5% / 94.7% of volume)."""
    rng = random.Random(seed)
    ripple = ripple_size_distribution().sample_many(rng, n_samples)
    bitcoin = bitcoin_size_distribution().sample_many(rng, n_samples)
    return Fig3Result(
        ripple=SizeSummary.of(ripple), bitcoin=SizeSummary.of(bitcoin)
    )


@dataclass(frozen=True)
class Fig4Result:
    """Recurrence statistics across 24-hour windows."""

    median_recurring_fraction: float
    median_top5_share: float
    days: int

    def format(self) -> str:
        rows = [
            ["median recurring fraction (Fig 4a)",
             f"{100 * self.median_recurring_fraction:.1f}%"],
            ["median top-5 receiver share (Fig 4b)",
             f"{100 * self.median_top5_share:.1f}%"],
            ["days analyzed", self.days],
        ]
        return format_table(["metric", "value"], rows)


def fig4_recurrence(
    days: int = 60,
    transactions_per_day: int = 1_000,
    n_nodes: int = 500,
    seed: int = 0,
) -> Fig4Result:
    """Fig 4: recurrence analysis (paper: 86% median recurring, top-5
    receivers >= 70%).  Paper scale is 1,306 days."""
    rng = random.Random(seed)
    trace = generate_multiday_trace(
        rng, list(range(n_nodes)), days=days, transactions_per_day=transactions_per_day
    )
    daily = recurring_fraction_per_day(trace)
    top5 = top_k_receiver_share_per_day(trace, k=5)
    return Fig4Result(
        median_recurring_fraction=percentile(daily, 0.5),
        median_top5_share=percentile(top5, 0.5),
        days=len(daily),
    )


# ------------------------------------------------------------- Figs 6 & 7


@dataclass(frozen=True)
class SweepResult:
    """A swept comparison: per scheme, one AveragedMetrics per x value."""

    x_label: str
    x_values: tuple
    series: dict[str, list[AveragedMetrics]]

    def metric_series(self, metric: str) -> dict[str, list[float]]:
        return {
            scheme: [getattr(point, metric) for point in points]
            for scheme, points in self.series.items()
        }

    def format(self) -> str:
        ratio = format_series(
            self.x_label,
            self.x_values,
            {
                scheme: [100 * v for v in values]
                for scheme, values in self.metric_series("success_ratio").items()
            },
            "succ. ratio (%)",
        )
        volume = format_series(
            self.x_label,
            self.x_values,
            self.metric_series("success_volume"),
            "succ. volume",
        )
        return ratio + "\n\n" + volume


def fig6_capacity_sweep(
    scenario: Scenario,
    scale_factors: tuple[float, ...] = (1, 10, 20, 30, 40, 50, 60),
    runs: int = 5,
    seed: int = 0,
) -> SweepResult:
    """Figs 6a-6d: success ratio & volume vs capacity scale factor."""
    series = sweep(
        list(scale_factors),
        lambda scale: scenario.factory(topology_overrides={"scale": scale}),
        paper_benchmark_factories(),
        runs=runs,
        base_seed=seed,
    )
    return SweepResult(
        x_label="capacity scale", x_values=tuple(scale_factors), series=series
    )


def fig7_load_sweep(
    scenario: Scenario,
    transaction_counts: tuple[int, ...] = (1_000, 2_000, 3_000, 4_000, 5_000, 6_000),
    capacity_scale: float = 10.0,
    runs: int = 5,
    seed: int = 0,
) -> SweepResult:
    """Figs 7a-7d: success ratio & volume vs number of transactions."""
    series = sweep(
        list(transaction_counts),
        lambda count: scenario.factory(
            topology_overrides={"scale": capacity_scale},
            workload_overrides={"transactions": count},
        ),
        paper_benchmark_factories(),
        runs=runs,
        base_seed=seed,
    )
    return SweepResult(
        x_label="#transactions",
        x_values=tuple(transaction_counts),
        series=series,
    )


# ------------------------------------------------------------------ Fig 8


@dataclass(frozen=True)
class Fig8Result:
    """Probing message totals, Flash vs Spider."""

    flash_probes: float
    spider_probes: float

    @property
    def savings_percent(self) -> float:
        if self.spider_probes == 0:
            return 0.0
        return 100.0 * (1.0 - self.flash_probes / self.spider_probes)

    def format(self) -> str:
        rows = [
            ["Flash", f"{self.flash_probes:.0f}"],
            ["Spider", f"{self.spider_probes:.0f}"],
            ["Flash savings", f"{self.savings_percent:.1f}%"],
        ]
        return format_table(["scheme", "probing messages"], rows)


def fig8_probing_overhead(
    scenario: Scenario,
    capacity_scale: float = 10.0,
    runs: int = 5,
    seed: int = 0,
) -> Fig8Result:
    """Fig 8: probing messages (paper: Flash saves 43% on Ripple, 37% on
    Lightning vs Spider).  Static schemes never probe and are excluded."""
    comparison = run_comparison(
        scenario.factory(topology_overrides={"scale": capacity_scale}),
        {"Flash": flash_factory(), "Spider": spider_factory()},
        runs=runs,
        base_seed=seed,
    )
    return Fig8Result(
        flash_probes=comparison["Flash"].probe_messages,
        spider_probes=comparison["Spider"].probe_messages,
    )


# ------------------------------------------------------------------ Fig 9


@dataclass(frozen=True)
class Fig9Result:
    """Fee-to-volume ratio with and without the program-(1) optimizer."""

    transaction_counts: tuple[int, ...]
    with_optimization: list[float]
    without_optimization: list[float]

    def format(self) -> str:
        return format_series(
            "#transactions",
            self.transaction_counts,
            {
                "w/ optimization": self.with_optimization,
                "w/o optimization": self.without_optimization,
            },
            "fees/volume (%)",
        )


def _with_paper_fees(factory: ScenarioFactory) -> ScenarioFactory:
    """``factory`` with the paper's Fig-9 fee mix drawn after each build.

    Fig 9 alone runs on this legacy flat fee model
    (:meth:`~repro.network.graph.ChannelGraph.assign_paper_fees`), so it
    is a hook here rather than a registered scenario or parameter.
    """

    def build(rng: random.Random):
        inputs = factory(rng)
        inputs[0].assign_paper_fees(rng)
        return inputs

    return build


def fig9_fee_optimization(
    scenario: Scenario,
    transaction_counts: tuple[int, ...] = (1_000, 2_000, 4_000),
    capacity_scale: float = 10.0,
    runs: int = 5,
    seed: int = 0,
) -> Fig9Result:
    """Fig 9: the optimizer cuts unit fees ~40% vs sequential filling."""
    factories = {
        "w/ optimization": flash_factory(optimize_fees=True),
        "w/o optimization": flash_factory(optimize_fees=False),
    }
    with_opt = []
    without_opt = []
    for count in transaction_counts:
        comparison = run_comparison(
            _with_paper_fees(
                scenario.factory(
                    topology_overrides={"scale": capacity_scale},
                    workload_overrides={"transactions": count},
                )
            ),
            factories,
            runs=runs,
            base_seed=seed,
        )
        with_opt.append(comparison["w/ optimization"].fee_to_volume_percent)
        without_opt.append(comparison["w/o optimization"].fee_to_volume_percent)
    return Fig9Result(
        transaction_counts=tuple(transaction_counts),
        with_optimization=with_opt,
        without_optimization=without_opt,
    )


# ----------------------------------------------------------------- Fig 10


@dataclass(frozen=True)
class Fig10Result:
    """Threshold sweep: success volume and probing vs mice percentage."""

    mice_percentages: tuple[int, ...]
    success_volumes: list[float]
    probe_messages: list[float]

    def format(self) -> str:
        return format_series(
            "% mice",
            self.mice_percentages,
            {
                "success volume": self.success_volumes,
                "probing messages": self.probe_messages,
            },
            "metric",
        )


def fig10_threshold_sweep(
    scenario: Scenario,
    mice_percentages: tuple[int, ...] = (0, 20, 40, 60, 80, 90, 100),
    capacity_scale: float = 10.0,
    runs: int = 3,
    seed: int = 0,
) -> Fig10Result:
    """Fig 10: volume stays flat until ~80-90% mice while probing falls."""
    build = scenario.factory(topology_overrides={"scale": capacity_scale})
    volumes = []
    probes = []
    for pct in mice_percentages:
        factory = (
            flash_all_elephant_factory()
            if pct == 0
            else flash_factory(mice_fraction=pct / 100.0)
        )
        comparison = run_comparison(
            build, {"Flash": factory}, runs=runs, base_seed=seed
        )
        volumes.append(comparison["Flash"].success_volume)
        probes.append(comparison["Flash"].probe_messages)
    return Fig10Result(
        mice_percentages=tuple(mice_percentages),
        success_volumes=volumes,
        probe_messages=probes,
    )


# ----------------------------------------------------------------- Fig 11


@dataclass(frozen=True)
class Fig11Result:
    """Paths-per-receiver sweep for mice routing (m=0 == elephant-style)."""

    m_values: tuple[int, ...]
    mice_success_volumes: list[float]
    mice_probe_messages: list[float]

    def format(self) -> str:
        return format_series(
            "m (paths/receiver)",
            self.m_values,
            {
                "mice success volume": self.mice_success_volumes,
                "mice probing messages": self.mice_probe_messages,
            },
            "metric",
        )


def fig11_mice_paths_sweep(
    scenario: Scenario,
    m_values: tuple[int, ...] = (0, 2, 4, 6, 8),
    capacity_scale: float = 10.0,
    runs: int = 3,
    seed: int = 0,
) -> Fig11Result:
    """Fig 11: a few paths per receiver get close to elephant-grade mice
    delivery at ~12x less probing; m=0 routes mice as elephants."""
    build = scenario.factory(topology_overrides={"scale": capacity_scale})
    volumes = []
    probes = []
    for m in m_values:
        factory = (
            flash_all_elephant_factory()
            if m == 0
            else flash_factory(m=m)
        )
        comparison = run_comparison(
            build, {"Flash": factory}, runs=runs, base_seed=seed
        )
        volumes.append(comparison["Flash"].mice_success_volume)
        probes.append(comparison["Flash"].mice_probe_messages)
    return Fig11Result(
        m_values=tuple(m_values),
        mice_success_volumes=volumes,
        mice_probe_messages=probes,
    )


# ------------------------------------------------------------ Figs 12 & 13


@dataclass(frozen=True)
class TestbedFigureResult:
    """One Fig-12/13 row: all capacity intervals for one topology size."""

    n_nodes: int
    intervals: tuple[tuple[float, float], ...]
    #: scheme -> [per-interval dict of metrics]
    table: dict[str, list[dict[str, float]]] = field(default_factory=dict)

    def format(self) -> str:
        headers = ["scheme"] + [
            f"[{int(low)},{int(high)})" for low, high in self.intervals
        ]
        blocks = []
        for metric, label in [
            ("success_volume", "success volume"),
            ("success_ratio", "success ratio (%)"),
            ("norm_delay", "normalized delay"),
            ("norm_mice_delay", "normalized mice delay"),
        ]:
            rows = []
            for scheme, cells in self.table.items():
                formatted = []
                for cell in cells:
                    value = cell[metric]
                    if metric == "success_ratio":
                        formatted.append(f"{100 * value:.1f}")
                    elif metric.startswith("norm"):
                        formatted.append(f"{value:.2f}")
                    else:
                        formatted.append(f"{value:.3e}")
                rows.append([scheme] + formatted)
            blocks.append(f"-- {label} --\n" + format_table(headers, rows))
        return "\n\n".join(blocks)


def testbed_figure(
    n_nodes: int,
    intervals: tuple[tuple[float, float], ...] = (
        (1_000.0, 1_500.0),
        (1_500.0, 2_000.0),
        (2_000.0, 2_500.0),
    ),
    n_transactions: int = 10_000,
    seed: int = 0,
) -> TestbedFigureResult:
    """Figs 12 (n=50) and 13 (n=100): the protocol testbed comparison."""
    from repro.protocol.testbed import TestbedExperiment, normalized_delays

    result = TestbedFigureResult(n_nodes=n_nodes, intervals=tuple(intervals))
    for low, high in intervals:
        experiment = TestbedExperiment(
            n_nodes=n_nodes,
            capacity_low=low,
            capacity_high=high,
            n_transactions=n_transactions,
            seed=seed,
        )
        run = experiment.run()
        normalized = normalized_delays(run)
        for scheme, scheme_result in run.items():
            cells = result.table.setdefault(scheme, [])
            cells.append(
                {
                    "success_volume": scheme_result.success_volume,
                    "success_ratio": scheme_result.success_ratio,
                    "norm_delay": normalized[scheme][0],
                    "norm_mice_delay": normalized[scheme][1],
                }
            )
    return result
