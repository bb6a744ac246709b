"""Unit and wiring tests for multi-part payments (MPP).

The atomicity invariant itself is fuzzed end-to-end in
``tests/property/test_mpp_atomicity.py``; this module covers the
pieces it is built from — the knob config, the split policies, the
all-or-nothing execution core, the netting rollback fix — and the
byte-identity guarantees: MPP-free runs must serialize, hash, and
store exactly as they did before MPP existed.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios as scenarios_mod
from repro.errors import InsufficientBalanceError
from repro.network.graph import ChannelGraph, Transfer
from repro.sim.engine import run_simulation
from repro.sim.factories import flash_factory, shortest_path_factory
from repro.sim.metrics import (
    MPP_FAMILY,
    SimulationResult,
    StreamingMetricsAccumulator,
    TransactionRecord,
)
from repro.sim.mpp import MppConfig, SPLIT_POLICIES, split_amounts
from repro.sim.runner import (
    RunConfig,
    cell_digest,
    resolve_run_config,
    run_comparison,
)
from repro.traces.generators import generate_ripple_workload
from repro.traces.workload import Transaction, Workload
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)


class TestMppConfig:
    def test_defaults_validate(self):
        MppConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_parts": 0},
            {"split": "bogus"},
            {"threshold": -1.0},
            {"min_part_amount": 0.0},
            {"part_retries": -1},
            {"part_retry_delay": -0.5},
            {"deadline": 0.0},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            MppConfig(**kwargs).validate()

    @pytest.mark.parametrize(
        "name", ["threshold", "min_part_amount", "part_retry_delay", "deadline"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_knobs_raise(self, name, value):
        # NaN passes every range comparison; infinities are no knob value.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MppConfig.from_params({name: value})

    def test_from_params_coerces_strings(self):
        config = MppConfig.from_params(
            {"max_parts": "6", "split": "flash", "deadline": "12.5"}
        )
        assert config.max_parts == 6
        assert config.split == "flash"
        assert config.deadline == 12.5

    def test_from_params_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown mpp parameter"):
            MppConfig.from_params({"bogus": 1})

    def test_to_params_is_fully_resolved(self):
        # An omitted knob and its explicit default must hash identically.
        assert MppConfig().to_params() == MppConfig.from_params(
            {"max_parts": 4}
        ).to_params()
        assert set(MppConfig().to_params()) == {
            "max_parts", "split", "threshold", "min_part_amount",
            "part_retries", "part_retry_delay", "deadline",
        }


class TestSplitAmounts:
    @given(
        amount=st.floats(min_value=1.0, max_value=10_000.0),
        max_parts=st.integers(min_value=1, max_value=8),
        split=st.sampled_from(SPLIT_POLICIES),
    )
    @settings(max_examples=200, deadline=None)
    def test_conserves_amount_exactly(self, amount, max_parts, split):
        config = MppConfig(max_parts=max_parts, split=split)
        parts = split_amounts(config, amount, threshold=0.0)
        assert math.fsum([]) == 0.0  # keep hypothesis honest about imports
        assert sum(parts) == amount  # exact: last part absorbs remainder
        assert len(parts) <= max_parts
        assert all(p > 0 for p in parts)

    @given(amount=st.floats(min_value=1.0, max_value=10_000.0))
    @settings(max_examples=100, deadline=None)
    def test_below_threshold_stays_whole(self, amount):
        config = MppConfig(max_parts=4)
        assert split_amounts(config, amount, threshold=amount + 1.0) == [
            amount
        ]

    @given(
        amount=st.floats(min_value=1.0, max_value=100.0),
        min_part=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_dust_parts(self, amount, min_part):
        config = MppConfig(max_parts=8, min_part_amount=min_part)
        parts = split_amounts(config, amount, threshold=0.0)
        if len(parts) > 1:
            assert min(parts) >= min_part - 1e-9

    def test_flash_split_halves_geometrically(self):
        config = MppConfig(max_parts=4, split="flash")
        parts = split_amounts(config, 80.0, threshold=0.0)
        assert parts[:2] == [40.0, 20.0]
        assert sum(parts) == 80.0

    def test_proportional_weights_by_local_balances(self):
        graph = ChannelGraph()
        graph.add_channel("s", "x", 300.0, 10.0)
        graph.add_channel("s", "y", 100.0, 10.0)
        graph.add_channel("s", "z", 0.0, 10.0)  # unfunded: never weighted
        config = MppConfig(max_parts=2, split="proportional")
        parts = split_amounts(
            config, 40.0, threshold=0.0, graph=graph, sender="s"
        )
        assert len(parts) == 2
        assert parts[0] == pytest.approx(30.0)  # 300/(300+100) of 40
        assert sum(parts) == 40.0

    def test_proportional_falls_back_to_equal_when_underfunded(self):
        graph = ChannelGraph()
        graph.add_channel("s", "x", 300.0, 10.0)
        config = MppConfig(max_parts=2, split="proportional")
        parts = split_amounts(
            config, 40.0, threshold=0.0, graph=graph, sender="s"
        )
        assert parts == [20.0, 20.0]


def _snapshot(graph: ChannelGraph) -> dict:
    return {
        (c.a, c.b): (
            c.balance(c.a, c.b),
            c.balance(c.b, c.a),
            c.held(c.a, c.b),
            c.held(c.b, c.a),
        )
        for c in graph.channels()
    }


def _line_graph() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 100.0, 100.0)
    graph.add_channel("b", "c", 100.0, 100.0)
    graph.add_channel("c", "d", 100.0, 100.0)
    return graph


class TestNettingRollback:
    """Satellite 1: a mid-apply failure rolls earlier legs back."""

    def test_mid_apply_exception_restores_balances(self, monkeypatch):
        graph = _line_graph()
        before = _snapshot(graph)
        # Pass the feasibility pre-check, then blow up on the second
        # channel's apply — the defensive unwind must restore leg one.
        target = graph.channel("b", "c")
        original = target.transfer
        calls = []

        def exploding(src, dst, amount):
            calls.append(amount)
            raise RuntimeError("injected mid-apply failure")

        monkeypatch.setattr(target, "transfer", exploding)
        with pytest.raises(RuntimeError, match="injected"):
            graph.execute(
                [Transfer(("a", "b", "c", "d"), 10.0)]
            )
        assert calls  # the failure actually fired mid-apply
        monkeypatch.setattr(target, "transfer", original)
        assert _snapshot(graph) == before  # bit-for-bit, not approx

    def test_infeasible_net_still_rejected_upfront(self):
        graph = _line_graph()
        before = _snapshot(graph)
        with pytest.raises(InsufficientBalanceError):
            graph.execute([Transfer(("a", "b", "c"), 150.0)])
        assert _snapshot(graph) == before


class TestExecutePartsAtomically:
    """Parts settle all-or-nothing, driven through ``run_simulation``."""

    @staticmethod
    def _run(graph, amount, mpp):
        """One a->d payment of ``amount``; its record and route amounts."""
        routed = []

        def factory(view, workload, rng):
            router = shortest_path_factory()(view, workload, rng)
            route = router.route

            def counted(transaction):
                routed.append(transaction.amount)
                return route(transaction)

            router.route = counted
            return router

        result = run_simulation(
            graph,
            factory,
            Workload([Transaction(txid=1, sender="a", receiver="d", amount=amount)]),
            copy_graph=False,
            mpp=mpp,
        )
        (record,) = result.records
        return record, routed

    def test_success_settles_every_part(self):
        graph = _line_graph()
        record, routed = self._run(
            graph, 40.0, MppConfig(max_parts=2, threshold=1.0, part_retries=0)
        )
        assert routed == [20.0, 20.0]
        assert record.success
        assert record.parts == 2
        assert record.partial_releases == 0
        assert graph.total_held() == pytest.approx(0.0, abs=1e-9)
        assert graph.balance("d", "c") == pytest.approx(140.0)

    def test_failed_part_refunds_reserved_siblings_exactly(self):
        # 60 fits the a->b->c->d line once, but the second 60-part
        # cannot reserve on the depleted b->c hop, nor on its retry a
        # second later: all-or-nothing abort.
        graph = _line_graph()
        before = _snapshot(graph)
        record, routed = self._run(
            graph, 120.0, MppConfig(max_parts=2, threshold=1.0, part_retries=1)
        )
        assert not record.success
        assert record.fee == 0.0
        assert record.partial_releases == 1  # the reserved sibling
        assert routed == [60.0, 60.0, 60.0]  # part 1 once, part 2 + retry
        assert _snapshot(graph) == before  # escrow refunded bit-for-bit

    def test_single_part_failure_releases_nothing(self):
        graph = _line_graph()
        before = _snapshot(graph)
        record, routed = self._run(graph, 500.0, MppConfig(max_parts=1))
        assert routed == [500.0]  # unsplit: the engine's retries, none
        assert not record.success
        assert record.parts == 1
        assert record.partial_releases == 0
        assert _snapshot(graph) == before


def _fold(records, track_mpp=False):
    """``records`` folded through the accumulator, as an engine run does."""
    accumulator = StreamingMetricsAccumulator(
        "x", track_mpp=track_mpp, keep_records=True
    )
    for record in records:
        accumulator.observe(record)
    return accumulator.result()


class TestMppMetrics:
    def _record(self, parts, success, releases=0, latency=0.0):
        return TransactionRecord(
            txid=1, amount=10.0, success=success, fee=0.0,
            is_elephant=True, probe_messages=0, payment_messages=0,
            paths_used=1, parts=parts, partial_releases=releases,
            latency=latency,
        )

    def test_only_multipart_payments_counted(self):
        records = [
            self._record(parts=3, success=True, latency=2.0),
            self._record(parts=3, success=False, releases=2),
            self._record(parts=1, success=True),  # enabled, not split
            self._record(parts=0, success=True),  # MPP-free record
        ]
        metrics = _fold(records, track_mpp=True).mpp
        assert metrics["mpp_payments"] == 2
        assert metrics["parts_per_payment"] == pytest.approx(3.0)
        assert metrics["mpp_success_ratio"] == pytest.approx(0.5)
        assert metrics["partial_release_count"] == 2
        assert metrics["mpp_latency_p95"] == pytest.approx(2.0)

    def test_empty_records(self):
        metrics = _fold([], track_mpp=True).mpp
        assert metrics["mpp_payments"] == 0
        assert metrics["mpp_success_ratio"] == 0.0


class TestByteIdentityPins:
    """MPP-free runs serialize, hash, and store as before MPP existed."""

    def test_mpp_free_records_carry_no_mpp_fields(self):
        result = _fold(
            [
                TransactionRecord(
                    txid=1, amount=5.0, success=True, fee=0.0,
                    is_elephant=False, probe_messages=0, payment_messages=0,
                    paths_used=1,
                )
            ]
        )
        record = result.to_record()
        assert not any(field in record for field in MPP_FAMILY.fields)
        assert result.records[0].parts == 0
        assert result.records[0].partial_releases == 0

    def test_mpp_run_appends_fields_last(self):
        result = _fold([], track_mpp=True)
        record = result.to_record()
        assert tuple(record)[-len(MPP_FAMILY.fields):] == MPP_FAMILY.fields

    def test_cell_digest_pinned_without_mpp(self):
        # The exact pre-MPP recipe: any change to this hash invalidates
        # every store ever written — bump only with a migration note.
        params, digest = cell_digest(None)
        assert "mpp" not in params
        assert digest == "7ca9816f6f6a"

    def test_cell_digest_folds_mpp_only_when_enabled(self):
        params, digest = cell_digest(None, config=RunConfig(mpp=MppConfig()))
        assert params["mpp"] == MppConfig().to_params()
        assert digest == "56e5c544d2e6"
        assert digest != "7ca9816f6f6a"
        # Explicit defaults and omitted knobs hash identically.
        explicit = resolve_run_config(mpp_params={"max_parts": 4})
        assert cell_digest(None, config=explicit)[1] == digest

    def test_legacy_store_records_load_with_an_empty_mpp_family(self):
        from repro.sim.metrics import METRIC_FIELDS

        # A pre-MPP store record: every base field, no MPP keys.
        legacy = {name: 0.0 for name in METRIC_FIELDS}
        stored = SimulationResult.from_record("flash", legacy)
        assert stored.mpp_success_ratio == 0.0
        assert stored.parts_per_payment == 0.0
        assert stored.partial_release_count == 0.0


class TestScenarioRegistryWiring:
    def test_mpp_storm_is_registered_for_reports(self):
        scenario = scenarios_mod.get_scenario("mpp-storm")
        assert scenario.engine == "concurrent"
        assert scenario.mpp_params is not None
        assert scenario.eval_matrix.report and not scenario.eval_matrix.smoke
        assert "/ mpp" in scenario.ingredients()

    def test_register_validates_mpp_params_eagerly(self):
        with pytest.raises(
            scenarios_mod.ScenarioError, match="max_parts must be >= 1"
        ):
            scenarios_mod.register_scenario(
                "bad-mpp-test", "bad mpp knobs",
                topology="ripple-synthetic", workload="ripple-trace",
                mpp_params={"max_parts": 0},
            )
        assert "bad-mpp-test" not in scenarios_mod.scenario_names()

    def test_resolve_mpp_merges_over_scenario_defaults(self):
        assert resolve_run_config("payment-storm").mpp is None
        registered = resolve_run_config("mpp-storm").mpp
        assert registered is not None and registered.split == "equal"
        merged = resolve_run_config(
            "mpp-storm", mpp_params={"split": "flash"}
        ).mpp
        assert merged.split == "flash"
        assert merged.max_parts == registered.max_parts
        assert merged.deadline == registered.deadline
        assert resolve_run_config(lambda rng: None).mpp is None
        assert resolve_run_config(
            lambda rng: None, mpp_params={"split": "flash"}
        ).mpp == MppConfig(split="flash")


def _tiny_scenario(rng: random.Random):
    edges = barabasi_albert_edges(25, 2, rng)
    graph = build_channel_graph(edges, uniform_sampler(60.0, 200.0), rng)
    workload = generate_ripple_workload(rng, graph.nodes, 25)
    return graph, workload


class TestRunnerStoreRoundTrip:
    def test_mpp_cells_resume_float_exactly(self, tmp_path):
        from repro.eval.store import ExperimentStore

        factories = {"Flash": flash_factory(k=4, m=2)}
        kwargs = dict(
            runs=2, base_seed=5,
            mpp_params={"threshold": 5.0, "max_parts": 3},
            experiment="mpp-roundtrip",
        )
        first = run_comparison(
            _tiny_scenario, factories,
            store=ExperimentStore(tmp_path), **kwargs,
        )
        resumed = run_comparison(
            _tiny_scenario, factories,
            store=ExperimentStore(tmp_path), **kwargs,
        )
        assert first.metrics == resumed.metrics
        assert first.metrics["Flash"].parts_per_payment > 1.0

    def test_sequential_mpp_results_are_deterministic(self):
        factories = {"Flash": flash_factory(k=4, m=2)}
        kwargs = dict(
            runs=1, base_seed=3, mpp_params={"threshold": 5.0}
        )
        a = run_comparison(_tiny_scenario, factories, **kwargs)
        b = run_comparison(_tiny_scenario, factories, **kwargs)
        assert a.metrics == b.metrics

    def test_sequential_golden_unchanged_by_mpp_import(self):
        # The MPP-free code path must not even read the MPP modules at
        # route time: same records as the pinned golden (the golden
        # itself is asserted in tests/sim/test_concurrent.py; here we
        # only pin that mpp=None takes the identical branch).
        rng = random.Random(0)
        edges = barabasi_albert_edges(20, 2, rng)
        graph = build_channel_graph(edges, uniform_sampler(50.0, 150.0), rng)
        workload = generate_ripple_workload(rng, graph.nodes, 15)
        off = run_simulation(
            graph, shortest_path_factory(), workload, rng=random.Random(1)
        )
        explicit = run_simulation(
            graph, shortest_path_factory(), workload,
            rng=random.Random(1), mpp=None,
        )
        assert off.records == explicit.records
        assert off.mpp == {} and explicit.mpp == {}
