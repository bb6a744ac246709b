"""Tests for simulation metrics and averaging."""

import dataclasses
import random

import pytest

from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)
from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
from repro.sim.engine import run_simulation
from repro.sim.factories import flash_factory, shortest_path_factory
from repro.sim.faults import JammingSpec, compile_faults
from repro.sim.metrics import (
    BASE_FAMILY,
    CONCURRENCY_FAMILY,
    FAMILIES,
    METRIC_FIELDS,
    RUN_ORDER,
    SWEEP_ORDER,
    AveragedMetrics,
    SimulationResult,
    StreamingMetricsAccumulator,
    TransactionRecord,
)
from repro.sim.mpp import MppConfig
from repro.traces.generators import generate_ripple_workload


def record(txid, amount, success, fee=0.0, elephant=False, probes=0, payments=0):
    return TransactionRecord(
        txid=txid,
        amount=amount,
        success=success,
        fee=fee,
        is_elephant=elephant,
        probe_messages=probes,
        payment_messages=payments,
        paths_used=1,
    )


def fold(scheme, records, keep_records=True):
    """``records`` folded through the accumulator, as an engine run does."""
    accumulator = StreamingMetricsAccumulator(scheme, keep_records=keep_records)
    for finished in records:
        accumulator.observe(finished)
    return accumulator.result()


@pytest.fixture
def result():
    return fold(
        "test",
        [
            record(0, 10.0, True, fee=0.1, probes=2),
            record(1, 20.0, False, probes=4),
            record(2, 1_000.0, True, fee=5.0, elephant=True, probes=10),
        ],
    )


class TestSimulationResult:
    def test_success_ratio(self, result):
        assert result.success_ratio == pytest.approx(2 / 3)

    def test_success_volume(self, result):
        assert result.success_volume == pytest.approx(1_010.0)

    def test_probe_messages(self, result):
        assert result.probe_messages == 16

    def test_fees_exclude_failures(self, result):
        assert result.total_fees == pytest.approx(5.1)

    def test_fee_to_volume_percent(self, result):
        assert result.fee_to_volume_percent == pytest.approx(100 * 5.1 / 1010.0)

    def test_class_breakdown(self, result):
        assert result.mice_success_volume == pytest.approx(10.0)
        assert result.elephant_success_volume == pytest.approx(1_000.0)
        assert result.mice_success_ratio == pytest.approx(0.5)
        assert result.elephant_success_ratio == pytest.approx(1.0)

    def test_empty_result(self):
        empty = fold("empty", [])
        assert empty.success_ratio == 0.0
        assert empty.fee_to_volume_percent == 0.0

    @pytest.mark.parametrize("keep_records", (True, False), ids=("list", "stream"))
    def test_sums_fold_left_to_right(self, keep_records):
        # A compensated sum (Python 3.12's ``sum()``) of these amounts is
        # 1.0000000000000002e16; the fold adds left to right on every
        # interpreter, so list-backed and streamed runs agree bit-for-bit.
        folded = fold(
            "x",
            [record(0, 1e16, True), record(1, 1.0, True), record(2, 1.0, True)],
            keep_records=keep_records,
        )
        assert folded.success_volume == 1e16


class TestAveragedMetrics:
    def test_mean_over_runs(self, result):
        other = fold("test", [record(0, 10.0, True, probes=4)])
        averaged = AveragedMetrics.of([result, other])
        assert averaged.runs == 2
        assert averaged.probe_messages == pytest.approx((16 + 4) / 2)

    def test_rejects_mixed_schemes(self, result):
        other = fold("other", [])
        with pytest.raises(ValueError):
            AveragedMetrics.of([result, other])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AveragedMetrics.of([])


class TestMetricFamilies:
    def test_every_surface_shows_its_own_fields(self):
        for family in (BASE_FAMILY, *FAMILIES):
            shown = (
                {column.metric for column in family.run_columns}
                | {block.metric for block in family.sweep_blocks}
                | {table.metric for table in family.tables}
            )
            assert shown <= set(family.fields), family.name

    def test_every_family_field_is_averaged_and_reads_zero_when_absent(self):
        averaged = {spec.name for spec in dataclasses.fields(AveragedMetrics)}
        absent = SimulationResult(scheme="x")
        assert absent.families() == ()
        for family in FAMILIES:
            for name in family.fields:
                assert name in averaged
                assert getattr(absent, name) == 0.0

    def test_display_orders_list_every_family_once(self):
        for order in (RUN_ORDER, SWEEP_ORDER):
            assert sorted(family.name for family in order) == sorted(
                family.name for family in FAMILIES
            )

    def test_records_append_carried_families_in_table_order(self):
        def values(family):
            return {name: 1.0 for name in family.fields}

        everything = SimulationResult(
            scheme="x",
            engine="concurrent",
            **{
                family.name: values(family)
                for family in FAMILIES
                if family is not CONCURRENCY_FAMILY
            },
        )
        assert everything.families() == FAMILIES
        assert tuple(everything.to_record()) == METRIC_FIELDS + tuple(
            name for family in FAMILIES for name in family.fields
        )
        # Averages name every family any run carries, in table order.
        fees_only = SimulationResult(scheme="x", fees={"fee_p50": 2.0})
        averaged = AveragedMetrics.of([fees_only, everything])
        assert averaged.families == tuple(family.name for family in FAMILIES)
        assert AveragedMetrics.of([fees_only]).families == ("fees",)


def _scenario(seed):
    rng = random.Random(seed)
    edges = barabasi_albert_edges(30, 2, rng)
    graph = build_channel_graph(edges, uniform_sampler(60.0, 200.0), rng)
    return graph, generate_ripple_workload(rng, graph.nodes, 40)


def _sequential():
    graph, workload = _scenario(1)
    return run_simulation(
        graph, shortest_path_factory(), workload, rng=random.Random(1)
    )


def _concurrent(faults=False):
    graph, workload = _scenario(2)
    plan = None
    if faults:
        plan = compile_faults(
            JammingSpec(channels=2, samples=8),
            graph,
            random.Random(0),
            workload[len(workload) - 1].time,
        )
    return run_concurrent_simulation(
        graph,
        flash_factory(k=4, m=2),
        workload,
        rng=random.Random(1),
        config=ConcurrencyConfig(load=40.0),
        faults=plan,
    )


def _fee_market():
    graph, workload = _scenario(3)
    assign_market_policies(
        graph, random.Random(3), initial_rate=0.01, paper_mix=True
    )
    graph.fee_controller = FeeMarketController(sensitivity=6.0)
    return run_simulation(
        graph, shortest_path_factory(), workload, rng=random.Random(1)
    )


def _mpp():
    graph, workload = _scenario(4)
    return run_simulation(
        graph,
        flash_factory(k=4, m=2),
        workload,
        rng=random.Random(1),
        mpp=MppConfig(threshold=5.0, max_parts=3),
    )


class TestStoreRoundTrip:
    @pytest.mark.parametrize(
        "run, engine, families",
        [
            (_sequential, "sequential", ()),
            (_concurrent, "concurrent", ()),
            (lambda: _concurrent(faults=True), "concurrent", ("resilience",)),
            (_fee_market, "sequential", ("fees",)),
            (_mpp, "sequential", ("mpp",)),
        ],
        ids=("sequential", "concurrent", "faults", "fees", "mpp"),
    )
    def test_from_record_round_trips_a_real_run(self, run, engine, families):
        result = run()
        assert result.engine == engine
        assert {
            name
            for name in ("resilience", "fees", "mpp")
            if getattr(result, name)
        } == set(families)
        stored = result.to_record()
        restored = SimulationResult.from_record(result.scheme, stored)
        assert restored.to_record() == stored
        assert AveragedMetrics.of([restored]) == AveragedMetrics.of([result])
