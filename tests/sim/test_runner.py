"""Tests for multi-run comparison and sweeps."""

import multiprocessing
import os
import random

import pytest

from repro.network.topology import grid_topology
from repro.sim.factories import (
    flash_factory,
    shortest_path_factory,
)
from repro.sim.runner import run_comparison, sweep
from repro.traces.generators import generate_ripple_workload


def scenario(scale=1.0):
    def build(rng: random.Random):
        graph = grid_topology(4, 4, balance=100.0)
        if scale != 1.0:
            graph.scale_balances(scale)
        workload = generate_ripple_workload(rng, graph.nodes, 40)
        return graph, workload

    return build


FACTORIES = {
    "Flash": flash_factory(k=5, m=2),
    "Shortest Path": shortest_path_factory(),
}


class TestRunComparison:
    def test_all_schemes_present(self):
        comparison = run_comparison(scenario(), FACTORIES, runs=2)
        assert set(comparison.schemes()) == {"Flash", "Shortest Path"}

    def test_averages_over_requested_runs(self):
        comparison = run_comparison(scenario(), FACTORIES, runs=3)
        assert comparison["Flash"].runs == 3

    def test_deterministic_given_seed(self):
        first = run_comparison(scenario(), FACTORIES, runs=2, base_seed=9)
        second = run_comparison(scenario(), FACTORIES, runs=2, base_seed=9)
        assert first["Flash"].success_volume == second["Flash"].success_volume

    def test_flash_at_least_matches_sp_volume(self):
        comparison = run_comparison(scenario(), FACTORIES, runs=3)
        assert (
            comparison["Flash"].success_volume
            >= 0.95 * comparison["Shortest Path"].success_volume
        )

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            run_comparison(scenario(), FACTORIES, runs=0)


class TestScenarioNames:
    def test_run_comparison_accepts_registered_name(self):
        comparison = run_comparison(
            "testbed-smallworld", FACTORIES, runs=1
        )
        assert set(comparison.schemes()) == {"Flash", "Shortest Path"}
        assert comparison["Flash"].runs == 1

    def test_unknown_name_raises_scenario_error(self):
        from repro.scenarios import ScenarioError

        with pytest.raises(ScenarioError, match="unknown scenario"):
            run_comparison("nope", FACTORIES, runs=1)

    def test_dynamic_scenario_threads_events_through_runner(self):
        def build(rng: random.Random):
            graph = grid_topology(4, 4, balance=100.0)
            workload = generate_ripple_workload(rng, graph.nodes, 30)
            from repro.network.dynamics import churn_events_for

            horizon = workload[len(workload) - 1].time
            events = churn_events_for(graph, rng, horizon, preset="volatile")
            return graph, workload, events

        comparison = run_comparison(build, FACTORIES, runs=2)
        assert comparison["Flash"].runs == 2
        assert 0.0 <= comparison["Flash"].success_ratio <= 1.0


class TestSweep:
    def test_series_shape(self):
        series = sweep([1.0, 5.0], scenario, FACTORIES, runs=2)
        assert len(series["Flash"]) == 2
        assert len(series["Shortest Path"]) == 2

    def test_more_capacity_never_hurts_much(self):
        series = sweep([1.0, 20.0], scenario, FACTORIES, runs=2)
        flash = series["Flash"]
        assert flash[1].success_ratio >= flash[0].success_ratio - 0.05


class TestParallelRuns:
    def test_workers_metrics_identical_to_serial(self):
        serial = run_comparison(scenario(), FACTORIES, runs=3, base_seed=7)
        parallel = run_comparison(
            scenario(), FACTORIES, runs=3, base_seed=7, workers=2
        )
        for name in FACTORIES:
            assert serial[name] == parallel[name]

    def test_workers_one_is_serial_path(self):
        serial = run_comparison(scenario(), FACTORIES, runs=2, base_seed=1)
        one = run_comparison(
            scenario(), FACTORIES, runs=2, base_seed=1, workers=1
        )
        for name in FACTORIES:
            assert serial[name] == one[name]

    def test_more_workers_than_runs(self):
        serial = run_comparison(scenario(), FACTORIES, runs=2, base_seed=2)
        wide = run_comparison(
            scenario(), FACTORIES, runs=2, base_seed=2, workers=8
        )
        for name in FACTORIES:
            assert serial[name] == wide[name]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_comparison(scenario(), FACTORIES, runs=2, workers=0)

    def test_sweep_forwards_workers(self):
        serial = sweep([1.0, 5.0], scenario, FACTORIES, runs=2)
        parallel = sweep([1.0, 5.0], scenario, FACTORIES, runs=2, workers=2)
        for name in FACTORIES:
            assert serial[name] == parallel[name]


class TestPoolSize:
    """The fork pool never outnumbers the CPUs this process may use."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch) -> list[int]:
        """Sizes of the fork pools created, in order."""
        sizes: list[int] = []
        get_context = multiprocessing.get_context

        class SpyContext:
            def __init__(self, method):
                self._context = get_context(method)

            def Pool(self, processes):
                sizes.append(processes)
                return self._context.Pool(processes=processes)

        monkeypatch.setattr(multiprocessing, "get_context", SpyContext)
        return sizes

    @staticmethod
    def _assert_matches_serial(workers: int) -> None:
        serial = run_comparison(scenario(), FACTORIES, runs=3, base_seed=5)
        capped = run_comparison(
            scenario(), FACTORIES, runs=3, base_seed=5, workers=workers
        )
        for name in FACTORIES:
            assert serial[name] == capped[name]

    def test_one_usable_cpu_takes_the_serial_path(
        self, monkeypatch, pool_sizes
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self._assert_matches_serial(workers=4)
        assert pool_sizes == []

    def test_pool_capped_at_usable_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        self._assert_matches_serial(workers=8)
        assert pool_sizes == [2]

    def test_cpu_count_without_affinity_mask(self, monkeypatch, pool_sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self._assert_matches_serial(workers=4)
        assert pool_sizes == []
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        self._assert_matches_serial(workers=4)
        assert pool_sizes == [3]
