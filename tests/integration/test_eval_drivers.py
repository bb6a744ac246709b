"""Tests for the per-figure experiment drivers (tiny scales).

These exercise the full driver code paths — scenario building, sweeping,
formatting — at the smallest scales that still produce meaningful output,
so `repro.eval` stays covered without benchmark-length runtimes.
"""

import dataclasses
import random

import pytest

from repro.eval import (
    ablation_k_sweep,
    ablation_mice_order,
    ablation_path_finding,
    fig3_size_cdfs,
    fig4_recurrence,
    fig6_capacity_sweep,
    fig8_probing_overhead,
    fig9_fee_optimization,
    fig10_threshold_sweep,
    fig11_mice_paths_sweep,
    testbed_figure as run_testbed_figure,
)
from repro.eval.experiments import _with_paper_fees
from repro.scenarios import get_scenario

TINY = dataclasses.replace(
    get_scenario("ripple-default"),
    topology_params={"nodes": 60, "edges": 400},
    workload_params={"transactions": 60},
)


def _channels(graph):
    return [
        (channel.a, channel.b, channel.balance_ab, channel.balance_ba)
        for channel in graph.channels()
    ]


class TestScenarioBuilding:
    def test_ripple_scenario(self):
        graph, workload = TINY.factory()(random.Random(0))
        assert graph.num_nodes() == 60
        assert len(workload) == 60

    @pytest.mark.parametrize(
        "name",
        [
            "ripple-default",
            "lightning-default",
            "ripple-snapshot",
            "lightning-snapshot",
        ],
    )
    def test_capacity_scale_applied(self, name):
        scenario = get_scenario(name)
        base_graph, base_workload = scenario.factory()(random.Random(0))
        scaled_graph, scaled_workload = scenario.factory(
            topology_overrides={"scale": 10}
        )(random.Random(0))
        assert scaled_graph.network_funds() == pytest.approx(
            10.0 * base_graph.network_funds()
        )
        assert list(scaled_workload) == list(base_workload)
        unit_graph, unit_workload = scenario.factory(
            topology_overrides={"scale": 1.0}
        )(random.Random(0))
        assert _channels(unit_graph) == _channels(base_graph)
        assert list(unit_workload) == list(base_workload)

    def test_fees_assigned_when_requested(self):
        factory = TINY.factory(
            topology_overrides={"nodes": 40, "edges": 150},
            workload_overrides={"transactions": 10},
        )
        rng = random.Random(0)
        graph, workload = _with_paper_fees(factory)(rng)
        rates = [graph.fee_policy(c.a, c.b).rate for c in graph.channels()]
        assert any(rate > 0 for rate in rates)
        # The plain build, then the fee draw on the rng it leaves: the
        # same workload and the same fees.
        plain_rng = random.Random(0)
        plain_graph, plain_workload = factory(plain_rng)
        plain_graph.assign_paper_fees(plain_rng)
        assert list(workload) == list(plain_workload)
        assert _channels(graph) == _channels(plain_graph)
        for channel in graph.channels():
            for src, dst in (channel.endpoints(), channel.endpoints()[::-1]):
                assert graph.fee_policy(src, dst) == plain_graph.fee_policy(
                    src, dst
                )
        assert rng.random() == plain_rng.random()


class TestMeasurementDrivers:
    def test_fig3_formats(self):
        result = fig3_size_cdfs(n_samples=2_000, seed=0)
        text = result.format()
        assert "Ripple" in text and "Bitcoin" in text

    def test_fig4_formats(self):
        result = fig4_recurrence(
            days=5, transactions_per_day=200, n_nodes=80, seed=0
        )
        assert result.days >= 4
        assert "recurring" in result.format()


class TestSimulationDrivers:
    def test_fig6_driver(self):
        result = fig6_capacity_sweep(
            TINY, scale_factors=(1, 10), runs=1, seed=0
        )
        assert set(result.series) == {
            "Flash",
            "Spider",
            "SpeedyMurmurs",
            "Shortest Path",
        }
        assert len(result.series["Flash"]) == 2
        assert "succ. ratio" in result.format()

    def test_fig8_driver(self):
        result = fig8_probing_overhead(TINY, runs=1, seed=0)
        assert result.flash_probes >= 0
        assert result.spider_probes > 0

    def test_fig9_driver(self):
        result = fig9_fee_optimization(
            TINY, transaction_counts=(40,), runs=1, seed=0
        )
        assert len(result.with_optimization) == 1
        assert result.with_optimization[0] >= 0

    def test_fig10_driver(self):
        result = fig10_threshold_sweep(
            TINY, mice_percentages=(0, 100), runs=1, seed=0
        )
        assert len(result.success_volumes) == 2

    def test_fig11_driver(self):
        result = fig11_mice_paths_sweep(
            TINY, m_values=(0, 2), runs=1, seed=0
        )
        assert len(result.mice_probe_messages) == 2


class TestTestbedDriver:
    def test_testbed_figure_small(self):
        result = run_testbed_figure(
            n_nodes=16,
            intervals=((1_000.0, 1_500.0),),
            n_transactions=40,
            seed=0,
        )
        assert set(result.table) == {"Flash", "Spider", "SP"}
        assert "normalized delay" in result.format()


class TestAblationDrivers:
    def test_k_sweep(self):
        result = ablation_k_sweep(TINY, k_values=(1, 4), runs=1, seed=0)
        assert result.series[4].success_volume >= 0
        assert "k" in result.format()

    def test_mice_order(self):
        result = ablation_mice_order(TINY, runs=1, seed=0)
        assert result.random_order.success_ratio >= 0

    def test_path_finding(self):
        result = ablation_path_finding(TINY, k=4, num_pairs=5, seed=0)
        assert result.exact_flow >= result.modified_ek_flow - 1e-6
        assert result.pairs == 5
