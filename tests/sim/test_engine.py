"""Tests for the trace-driven simulation engine."""

import random

import pytest

from repro.network.dynamics import run_dynamic_simulation
from repro.scenarios import get_scenario
from repro.sim.concurrent import run_concurrent_simulation
from repro.sim.engine import run_simulation
from repro.sim.factories import (
    flash_factory,
    paper_benchmark_factories,
    shortest_path_factory,
    spider_factory,
)
from repro.sim.mpp import MppConfig
from repro.traces.workload import Transaction, Workload


@pytest.fixture
def small_workload():
    return Workload(
        [
            Transaction(txid=0, sender=0, receiver=3, amount=10.0, time=0.0),
            Transaction(txid=1, sender=0, receiver=3, amount=20.0, time=1.0),
            Transaction(txid=2, sender=3, receiver=0, amount=15.0, time=2.0),
            Transaction(txid=3, sender=0, receiver=3, amount=900.0, time=3.0),
        ]
    )


class TestRunSimulation:
    def test_records_every_transaction(self, diamond_graph, small_workload):
        result = run_simulation(diamond_graph, flash_factory(), small_workload)
        assert result.transactions == 4
        assert [r.txid for r in result.records] == [0, 1, 2, 3]

    def test_copy_graph_preserves_input(self, diamond_graph, small_workload):
        funds = {
            (0, 1): diamond_graph.balance(0, 1),
            (0, 2): diamond_graph.balance(0, 2),
        }
        run_simulation(diamond_graph, flash_factory(), small_workload)
        assert diamond_graph.balance(0, 1) == funds[(0, 1)]
        assert diamond_graph.balance(0, 2) == funds[(0, 2)]

    def test_copy_graph_false_mutates_input(self, diamond_graph, small_workload):
        run_simulation(
            diamond_graph,
            shortest_path_factory(),
            small_workload,
            copy_graph=False,
        )
        moved = sum(
            1
            for (u, v) in [(0, 1), (0, 2)]
            if diamond_graph.balance(u, v) != 50.0
        )
        assert moved >= 1

    def test_oversized_payment_fails(self, diamond_graph, small_workload):
        result = run_simulation(diamond_graph, flash_factory(), small_workload)
        assert result.records[3].success is False

    def test_elephant_tagging_uses_reference_fraction(
        self, diamond_graph, small_workload
    ):
        result = run_simulation(
            diamond_graph,
            flash_factory(),
            small_workload,
            reference_mice_fraction=0.75,
        )
        tags = [r.is_elephant for r in result.records]
        assert tags == [False, False, False, True]

    def test_message_deltas_attributed_per_transaction(
        self, diamond_graph, small_workload
    ):
        result = run_simulation(diamond_graph, spider_factory(), small_workload)
        # Spider probes both disjoint paths (2 hops each) per payment.
        for record in result.records:
            assert record.probe_messages == 4

    def test_deterministic_given_seed(self, diamond_graph, small_workload):
        first = run_simulation(
            diamond_graph, flash_factory(), small_workload, rng=random.Random(3)
        )
        second = run_simulation(
            diamond_graph, flash_factory(), small_workload, rng=random.Random(3)
        )
        assert [r.success for r in first.records] == [
            r.success for r in second.records
        ]

    @pytest.mark.parametrize("engine", ["sequential", "concurrent"])
    def test_decreasing_list_times_are_refused(
        self, diamond_graph, small_workload, engine
    ):
        # Payments start in time order; a list out of that order would
        # silently run in another order than it reads.
        small_workload.transactions.reverse()
        run = (
            run_simulation
            if engine == "sequential"
            else run_concurrent_simulation
        )
        with pytest.raises(ValueError, match="must not decrease"):
            run(diamond_graph, flash_factory(), small_workload)


@pytest.fixture(scope="module")
def ripple_fees_build():
    build = get_scenario("ripple-fees").factory(
        workload_overrides={"transactions": 300}
    )
    graph, workload, events = build(random.Random(0))
    assert graph.fee_controller is not None and events == []
    return graph, workload


class TestFeeControllerHonoured:
    """``run_simulation`` ticks a graph's fee controller like the dynamic path."""

    @pytest.mark.parametrize("scheme", sorted(paper_benchmark_factories()))
    def test_matches_dynamic_engine(self, ripple_fees_build, scheme):
        graph, workload = ripple_fees_build
        factory = paper_benchmark_factories()[scheme]
        plain = run_simulation(graph, factory, workload, rng=random.Random(1))
        dynamic = run_dynamic_simulation(
            graph, factory, workload, [], rng=random.Random(1)
        )
        assert plain.to_record() == dynamic.to_record()

    def test_matches_dynamic_engine_with_mpp(self, ripple_fees_build):
        graph, workload = ripple_fees_build
        factory = paper_benchmark_factories()["Flash"]
        plain = run_simulation(
            graph, factory, workload, rng=random.Random(1), mpp=MppConfig()
        )
        dynamic = run_dynamic_simulation(
            graph, factory, workload, [], rng=random.Random(1), mpp=MppConfig()
        )
        assert plain.to_record() == dynamic.to_record()
