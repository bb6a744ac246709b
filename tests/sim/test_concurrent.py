"""Tests for the discrete-event concurrent payment engine.

Covers the concurrency model of docs/CONCURRENCY.md: in-flight holds
contend, timeouts release escrow, retries re-attempt, the engine is
deterministic per seed (including under fork parallelism), the
sequential engine is byte-identical to its pre-concurrent golden, and
the registered ``payment-storm`` scenario shows load-dependent
behaviour (the PR's acceptance criterion).
"""

import gc
import json
import random
import weakref
import zlib
from pathlib import Path

import pytest

import repro.scenarios as scenarios
from repro.network.graph import ChannelGraph
from repro.sim import run_comparison
from repro.sim.concurrent import (
    ConcurrencyConfig,
    run_concurrent_simulation,
)
from repro.sim.engine import run_simulation
from repro.sim.factories import (
    flash_factory,
    paper_benchmark_factories,
    shortest_path_factory,
)
from repro.sim.metrics import CONCURRENCY_FAMILY, METRIC_FIELDS
from repro.traces.workload import Transaction, Workload, WorkloadStream

GOLDEN = Path(__file__).parent.parent / "golden" / "sequential_engine.json"


def line_graph(capacity: float = 100.0) -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("A", "B", capacity, capacity)
    graph.add_channel("B", "C", capacity, capacity)
    return graph


def payments(*specs) -> Workload:
    return Workload(
        [
            Transaction(
                txid=i, sender=s, receiver=r, amount=amount, time=time
            )
            for i, (s, r, amount, time) in enumerate(specs)
        ]
    )


class TestConcurrencyConfig:
    def test_defaults_validate(self):
        ConcurrencyConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hop_latency": -0.1},
            {"timeout": 0.0},
            {"load": 0.0},
            {"max_retries": -1},
            {"retry_delay": -1.0},
            {"gossip_period": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ConcurrencyConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "name", ["hop_latency", "timeout", "load", "retry_delay", "gossip_period"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, name, value):
        # NaN passes every range comparison; infinities are no knob value.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ConcurrencyConfig.from_params({name: value})

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown concurrency parameter"):
            ConcurrencyConfig.from_params({"lod": 10})

    def test_from_params_coerces_cli_strings(self):
        config = ConcurrencyConfig.from_params(
            {"load": "50", "max_retries": "3"}
        )
        assert config.load == 50.0
        assert config.max_retries == 3

    def test_to_params_round_trips_fully_resolved(self):
        config = ConcurrencyConfig(load=7.0)
        params = config.to_params()
        assert params["load"] == 7.0
        assert params["timeout"] == ConcurrencyConfig().timeout
        assert ConcurrencyConfig.from_params(params) == config


class TestRetryBackoff:
    """Engine-level retries wait a fixed ``retry_delay``."""

    def test_to_params_omits_backoff_knobs_at_defaults(self):
        # Store cells are keyed by exactly these knobs: a knob added to
        # the config would move every concurrent cell's digest.
        params = ConcurrencyConfig(load=7.0).to_params()
        assert set(params) == {
            "hop_latency",
            "timeout",
            "load",
            "max_retries",
            "retry_delay",
            "gossip_period",
        }

    def test_fixed_delay_retries_exhaust_before_capacity_frees(self):
        # One channel, 20/180: txn0 (B->A 100) settles at t=2 and *adds*
        # 100 to the A->B direction; txn1 (A->B 50) cannot reserve until
        # that settle lands.  Its retries at t=0.9 and t=1.3 both precede
        # the settle, so it fails for lack of capacity.
        graph = ChannelGraph()
        graph.add_channel("A", "B", 20.0, 180.0)
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            payments(("B", "A", 100.0, 0.0), ("A", "B", 50.0, 0.5)),
            rng=random.Random(0),
            config=ConcurrencyConfig(
                hop_latency=1.0,
                timeout=5.0,
                max_retries=2,
                retry_delay=0.4,
            ),
        )
        assert [r.success for r in result.records] == [True, False]


class TestContention:
    def test_overlapping_payments_contend_for_holds(self):
        # txn 1 starts while txn 0's 80 is escrowed on A->B (settles at
        # t=4): only one fits; txn 2 starts after settle but the channel
        # is then genuinely depleted (20 left), so it fails too.
        workload = payments(
            ("A", "C", 80.0, 0.0),
            ("A", "C", 80.0, 1.0),
            ("A", "C", 80.0, 50.0),
        )
        result = run_concurrent_simulation(
            line_graph(),
            shortest_path_factory(),
            workload,
            rng=random.Random(0),
            config=ConcurrencyConfig(hop_latency=1.0, max_retries=0),
        )
        assert [r.success for r in result.records] == [True, False, False]
        assert result.records[0].latency == pytest.approx(4.0)

    def test_sequentially_spaced_payments_do_not_contend(self):
        # Same payments far enough apart that each settles before the
        # next starts: the first succeeds, later ones hit depletion
        # exactly as the sequential engine would.
        workload = payments(
            ("A", "C", 80.0, 0.0),
            ("C", "A", 80.0, 100.0),
            ("A", "C", 80.0, 200.0),
        )
        result = run_concurrent_simulation(
            line_graph(),
            shortest_path_factory(),
            workload,
            rng=random.Random(0),
            config=ConcurrencyConfig(hop_latency=1.0, max_retries=0),
        )
        assert [r.success for r in result.records] == [True, True, True]

    def test_no_escrow_leaks_and_funds_conserved(self):
        graph = line_graph()
        funds_before = graph.network_funds()
        workload = payments(
            ("A", "C", 80.0, 0.0),
            ("A", "C", 80.0, 1.0),
            ("C", "A", 30.0, 2.0),
        )
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            workload,
            rng=random.Random(0),
            config=ConcurrencyConfig(hop_latency=1.0, max_retries=1),
            copy_graph=False,
        )
        assert graph.total_held() == 0.0
        assert graph.network_funds() == pytest.approx(funds_before)
        assert result.transactions == 3


class TestTimeout:
    def test_long_path_times_out_and_releases_holds(self):
        graph = line_graph()
        workload = payments(("A", "C", 80.0, 0.0))
        # 2 hops * 2 * 1 s/hop = 4 s settle delay > 3 s timeout.
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            workload,
            rng=random.Random(0),
            config=ConcurrencyConfig(
                hop_latency=1.0, timeout=3.0, max_retries=0
            ),
            copy_graph=False,
        )
        record = result.records[0]
        assert not record.success
        assert record.timed_out
        assert record.latency == pytest.approx(3.0)
        assert result.timeout_failures == 1
        # Escrow fully released: balances back to their deposits.
        assert graph.total_held() == 0.0
        assert graph.balance("A", "B") == pytest.approx(100.0)
        assert graph.balance("B", "C") == pytest.approx(100.0)

    def test_within_timeout_settles(self):
        result = run_concurrent_simulation(
            line_graph(),
            shortest_path_factory(),
            payments(("A", "C", 80.0, 0.0)),
            rng=random.Random(0),
            config=ConcurrencyConfig(
                hop_latency=1.0, timeout=4.0, max_retries=0
            ),
        )
        assert result.records[0].success
        assert result.timeout_failures == 0


class TestRetries:
    def test_retry_counts_and_waits_on_persistent_shortage(self):
        # txn 1 fails at t=1 while txn 0's 60 is escrowed; by its retry
        # at t=6 the escrow has *settled* (depletion: 40 left on A->B),
        # so the retry fails too — but is counted, and the final-failure
        # latency covers the wait.
        workload = payments(
            ("A", "C", 60.0, 0.0),
            ("A", "C", 60.0, 1.0),
        )
        result = run_concurrent_simulation(
            line_graph(),
            shortest_path_factory(),
            workload,
            rng=random.Random(0),
            config=ConcurrencyConfig(
                hop_latency=1.0, max_retries=1, retry_delay=5.0
            ),
        )
        first, second = result.records
        assert first.success and first.retries == 0
        assert not second.success
        assert second.retries == 1
        assert second.latency == pytest.approx(5.0)
        assert result.retries_total == 1

    def test_retry_rescues_contention_after_holds_release(self):
        # A-B-C-D line.  txn 0 (A->D, 3 hops, settle delay 6 s) exceeds
        # the 5 s timeout, so its escrow is released at t=5.  txn 1
        # (A->C, 2 hops) is blocked by that escrow at t=1, but its retry
        # at t=6 finds the channel whole again and settles in 4 s — a
        # genuinely transient, contention-caused failure rescued by the
        # retry.
        graph = ChannelGraph()
        graph.add_channel("A", "B", 100.0, 100.0)
        graph.add_channel("B", "C", 100.0, 100.0)
        graph.add_channel("C", "D", 100.0, 100.0)
        workload = payments(
            ("A", "D", 80.0, 0.0),
            ("A", "C", 50.0, 1.0),
        )
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            workload,
            rng=random.Random(0),
            config=ConcurrencyConfig(
                hop_latency=1.0, timeout=5.0, max_retries=1, retry_delay=5.0
            ),
        )
        first, second = result.records
        assert first.timed_out and not first.success
        assert second.success
        assert second.retries == 1
        # retry at t=6 settles at t=10; started at t=1.
        assert second.latency == pytest.approx(9.0)


class TestDeterminism:
    def _storm(self, seed=0, transactions=60):
        scenario = scenarios.get_scenario("payment-storm")
        factory = scenario.factory(
            workload_overrides={"transactions": transactions}
        )
        graph, workload = factory(random.Random(seed))
        return graph, workload, scenario

    def test_same_seed_identical_records(self):
        graph, workload, scenario = self._storm()
        config = ConcurrencyConfig.from_params(scenario.engine_params)
        results = [
            run_concurrent_simulation(
                graph,
                flash_factory(),
                workload,
                rng=random.Random(11),
                config=config,
            )
            for _ in range(2)
        ]
        assert results[0].records == results[1].records
        assert results[0].to_record() == results[1].to_record()

    def test_workers_identical_to_serial(self):
        scenario = scenarios.get_scenario("payment-storm")
        factory = scenario.factory(workload_overrides={"transactions": 50})
        kwargs = dict(
            runs=2,
            base_seed=3,
            engine="concurrent",
            engine_params=scenario.engine_params,
        )
        factories = {"Flash": flash_factory()}
        serial = run_comparison(factory, factories, **kwargs)
        parallel = run_comparison(factory, factories, workers=2, **kwargs)
        assert serial["Flash"] == parallel["Flash"]

    def test_concurrent_record_carries_latency_fields(self):
        graph, workload, scenario = self._storm(transactions=30)
        result = run_concurrent_simulation(
            graph,
            flash_factory(),
            workload,
            rng=random.Random(1),
            config=ConcurrencyConfig.from_params(scenario.engine_params),
        )
        record = result.to_record()
        for name in METRIC_FIELDS + CONCURRENCY_FAMILY.fields:
            assert name in record


class TestSequentialEquivalence:
    """engine="sequential" must stay byte-identical to the pre-change engine."""

    def test_sequential_matches_prechange_golden(self, sweeps):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        scenario = scenarios.get_scenario("ripple-snapshot")
        factory = scenario.factory(workload_overrides={"transactions": 40})
        graph, workload = factory(random.Random(0))
        for name, router_factory in paper_benchmark_factories().items():
            salt = zlib.crc32(name.encode("utf-8")) % 7_919
            result = run_simulation(
                graph, router_factory, workload, rng=random.Random(salt)
            )
            assert result.to_record() == golden[name]["metrics"], name
            observed = [
                [
                    r.txid,
                    r.amount,
                    r.success,
                    r.fee,
                    r.is_elephant,
                    r.probe_messages,
                    r.payment_messages,
                    r.paths_used,
                ]
                for r in result.records
            ]
            assert observed == golden[name]["records"], name

    def test_sequential_records_do_not_carry_concurrency_fields(self):
        graph = line_graph()
        result = run_simulation(
            graph, shortest_path_factory(), payments(("A", "C", 10.0, 0.0))
        )
        assert result.engine == "sequential"
        for name in CONCURRENCY_FAMILY.fields:
            assert name not in result.to_record()

    def test_run_comparison_engine_sequential_is_default_path(self):
        factories = {"Shortest Path": shortest_path_factory()}
        default = run_comparison("ripple-snapshot", factories, runs=1)
        explicit = run_comparison(
            "ripple-snapshot", factories, runs=1, engine="sequential"
        )
        assert default["Shortest Path"] == explicit["Shortest Path"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_comparison(
                "ripple-snapshot",
                {"Shortest Path": shortest_path_factory()},
                runs=1,
                engine="warp",
            )

    def test_engine_params_with_sequential_engine_rejected(self):
        # Knobs that would be silently ignored must fail loudly instead.
        with pytest.raises(ValueError, match="no effect"):
            run_comparison(
                "ripple-snapshot",
                {"Shortest Path": shortest_path_factory()},
                runs=1,
                engine_params={"load": 500.0},
            )
        with pytest.raises(ValueError, match="no effect"):
            run_comparison(
                "timeout-stress",
                {"Shortest Path": shortest_path_factory()},
                runs=1,
                engine="sequential",
                engine_params={"timeout": 0.001},
            )


class TestChurnInterleaving:
    def test_close_on_channel_with_inflight_escrow_is_dropped(self):
        from repro.network.dynamics import ChannelEvent, ChannelEventType

        graph = line_graph()
        funds_before = graph.network_funds()
        # The close lands at t=2 while txn 0's holds (placed at t=0,
        # settling at t=4) still escrow B-C.  A channel with pending
        # HTLCs cannot cooperatively close, so the event is dropped:
        # no crash, the payment settles, and funds are conserved.
        events = [
            ChannelEvent(time=2.0, kind=ChannelEventType.CLOSE, a="B", b="C")
        ]
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            payments(("A", "C", 80.0, 0.0)),
            rng=random.Random(0),
            config=ConcurrencyConfig(hop_latency=1.0, max_retries=0),
            events=events,
            copy_graph=False,
        )
        assert result.records[0].success
        assert graph.has_channel("B", "C")
        assert graph.total_held() == 0.0
        assert graph.network_funds() == pytest.approx(funds_before)

    def test_close_on_idle_channel_still_applies(self):
        from repro.network.dynamics import ChannelEvent, ChannelEventType

        graph = line_graph()
        events = [
            ChannelEvent(time=10.0, kind=ChannelEventType.CLOSE, a="B", b="C")
        ]
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            payments(("A", "C", 80.0, 0.0), ("A", "C", 10.0, 20.0)),
            rng=random.Random(0),
            config=ConcurrencyConfig(hop_latency=1.0, max_retries=0),
            events=events,
            copy_graph=False,
        )
        # txn 0 settled before the close; txn 1 finds no B-C channel.
        assert result.records[0].success
        assert not result.records[1].success
        assert not graph.has_channel("B", "C")

    def test_events_apply_at_scaled_time(self):
        from repro.network.dynamics import ChannelEvent, ChannelEventType

        graph = line_graph()
        # Opening A-C at t=10 gives the t=20 payment a direct 1-hop
        # path; with load=2 the event fires at simulated t=5, still
        # before the payment's compressed start at t=10.
        events = [
            ChannelEvent(
                time=10.0,
                kind=ChannelEventType.OPEN,
                a="A",
                b="C",
                balance_a=500.0,
                balance_b=500.0,
            )
        ]
        workload = payments(("A", "C", 400.0, 20.0))
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            workload,
            rng=random.Random(0),
            config=ConcurrencyConfig(
                hop_latency=1.0, load=2.0, gossip_period=1.0
            ),
            events=events,
        )
        record = result.records[0]
        # 400 only fits over the fresh direct channel (1 hop => 2 s).
        assert record.success
        assert record.latency == pytest.approx(2.0)


class TestLoadDependence:
    """The PR's acceptance criterion, on the registered scenario."""

    def test_payment_storm_degrades_with_offered_load(self):
        scenario = scenarios.get_scenario("payment-storm")
        factory = scenario.factory(workload_overrides={"transactions": 200})
        by_load = {}
        for load in (1.0, 300.0, 3000.0):
            comparison = run_comparison(
                factory,
                {"Flash": flash_factory()},
                runs=3,
                base_seed=0,
                engine="concurrent",
                engine_params={**scenario.engine_params, "load": load},
            )
            by_load[load] = comparison["Flash"]
        success = [by_load[load].success_ratio for load in (1.0, 300.0, 3000.0)]
        p95 = [by_load[load].latency_p95 for load in (1.0, 300.0, 3000.0)]
        assert success[0] > success[1] > success[2], success
        assert p95[0] < p95[1] < p95[2], p95

    def test_timeout_stress_produces_timeout_failures(self):
        comparison = run_comparison(
            "timeout-stress",
            {"Flash": flash_factory()},
            runs=1,
        )
        assert comparison["Flash"].timeout_failures > 0


class TestStoreRoundTrip:
    def test_concurrent_cells_resume_float_exactly(self, tmp_path):
        from repro.eval.store import ExperimentStore

        scenario = scenarios.get_scenario("timeout-stress")
        factory = scenario.factory(workload_overrides={"transactions": 40})
        factories = {"Flash": flash_factory()}
        kwargs = dict(
            runs=2,
            base_seed=0,
            experiment="timeout-stress",
            engine="concurrent",
            engine_params=scenario.engine_params,
        )
        fresh = run_comparison(
            factory, factories, store=ExperimentStore(tmp_path), **kwargs
        )
        resumed = run_comparison(
            factory, factories, store=ExperimentStore(tmp_path), **kwargs
        )
        assert fresh["Flash"] == resumed["Flash"]
        assert resumed["Flash"].timeout_failures > 0

    def test_engine_knobs_partition_the_store(self, tmp_path):
        from repro.eval.store import ExperimentStore

        scenario = scenarios.get_scenario("timeout-stress")
        factory = scenario.factory(workload_overrides={"transactions": 30})
        factories = {"Flash": flash_factory()}
        store = ExperimentStore(tmp_path)
        kwargs = dict(
            runs=1, base_seed=0, experiment="timeout-stress", store=store
        )
        run_comparison(
            factory,
            factories,
            engine="concurrent",
            engine_params={"timeout": 1.0},
            **kwargs,
        )
        assert len(store) == 1
        # A different knob value is a different cell, not a resume hit.
        run_comparison(
            factory,
            factories,
            engine="concurrent",
            engine_params={"timeout": 2.0},
            **kwargs,
        )
        assert len(store) == 2


class TestRunFreesItsState:
    """A run's router, view and graph copy die when it returns.

    Under ``gc.disable()`` nothing the cyclic collector alone could free
    goes away, so a live weakref to the router right after the run
    returns means the run left a reference cycle behind.
    """

    @pytest.mark.parametrize("engine", ["sequential", "concurrent"])
    @pytest.mark.parametrize("streamed", [False, True], ids=["list", "stream"])
    @pytest.mark.parametrize("scheme", ["Flash", "Shortest Path"])
    def test_router_is_freed_without_the_collector(
        self, engine, streamed, scheme
    ):
        workload = payments(
            *[("A", "C", 10.0, float(t)) for t in range(6)],
            ("C", "A", 30.0, 6.0),
            ("A", "C", 500.0, 7.0),
        )
        if streamed:
            workload = WorkloadStream(list(workload))
        routers = []

        def factory(view, workload, rng):
            router = paper_benchmark_factories()[scheme](view, workload, rng)
            routers.append(weakref.ref(router))
            return router

        gc.collect()
        gc.disable()
        try:
            if engine == "sequential":
                run_simulation(line_graph(), factory, workload)
            else:
                run_concurrent_simulation(
                    line_graph(),
                    factory,
                    workload,
                    config=ConcurrencyConfig(hop_latency=0.5, max_retries=1),
                )
            (router,) = routers
            assert router() is None
        finally:
            gc.enable()


class TestDocstrings:
    """Satellite: docstring enforcement extends to the concurrent engine."""

    def test_concurrent_module_public_api_documented(self):
        import inspect

        from repro.sim import concurrent

        assert concurrent.__doc__
        for name in sorted(vars(concurrent)):
            if name.startswith("_"):
                continue
            obj = vars(concurrent)[name]
            if (
                inspect.isfunction(obj) or inspect.isclass(obj)
            ) and obj.__module__ == concurrent.__name__:
                assert obj.__doc__, f"repro.sim.concurrent.{name} undocumented"
                if inspect.isclass(obj):
                    for method_name, method in vars(obj).items():
                        if not method_name.startswith("_") and inspect.isfunction(
                            method
                        ):
                            assert method.__doc__, (
                                f"{name}.{method_name} undocumented"
                            )

    def test_engine_docstring_names_both_engines(self):
        from repro.sim import engine

        assert "sequential" in engine.__doc__
        assert "concurrent" in engine.__doc__
        assert "byte-identical" in engine.__doc__
