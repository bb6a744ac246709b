"""Registry semantics, catalog round-trip, and docstring enforcement."""

import inspect
import random

import pytest

import repro.scenarios as scenarios
from repro.scenarios.registry import (
    DYNAMICS,
    FAULTS,
    ParamSpec,
    Registry,
    ScenarioError,
    TOPOLOGIES,
    WORKLOADS,
)
from repro.sim.runner import resolve_scenario
from repro.traces.workload import Workload, WorkloadStream


class TestParamSpec:
    def test_coerce_from_cli_strings(self):
        assert ParamSpec("n", int, 1).coerce("42") == 42
        assert ParamSpec("x", float, 1.0).coerce("2.5") == 2.5
        assert ParamSpec("flag", bool, False).coerce("yes") is True
        assert ParamSpec("flag", bool, True).coerce("off") is False

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ScenarioError, match="expects int"):
            ParamSpec("n", int, 1).coerce("many")
        with pytest.raises(ScenarioError, match="expects bool"):
            ParamSpec("flag", bool, False).coerce("maybe")
        for value in ("nan", "inf", "-inf", float("nan")):
            with pytest.raises(ScenarioError, match="expects a finite float"):
                ParamSpec("x", float, 1.0).coerce(value)


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", lambda: None, "first")
        with pytest.raises(ScenarioError, match="already registered"):
            registry.register("a", lambda: None, "second")

    def test_unknown_name_lists_known(self):
        registry = Registry("thing")
        registry.register("alpha", lambda: None, "a thing")
        with pytest.raises(ScenarioError, match="alpha"):
            registry.get("beta")

    def test_bind_rejects_unknown_parameter(self):
        entry = TOPOLOGIES.get("ripple-synthetic")
        with pytest.raises(ScenarioError, match="no parameter"):
            entry.bind({"n_nodes": 10})  # the parameter is called "nodes"

    def test_bind_layers_overrides_on_defaults(self):
        entry = TOPOLOGIES.get("ripple-synthetic")
        bound = entry.bind({"nodes": "64"})
        assert bound["nodes"] == 64
        assert bound["edges"] == 1_400


class TestScenarioRegistration:
    def test_register_validates_ingredients_eagerly(self):
        with pytest.raises(ScenarioError, match="unknown topology"):
            scenarios.register_scenario(
                "tmp-bad-topology",
                "broken",
                topology="no-such-topology",
                workload="ripple-trace",
            )
        assert "tmp-bad-topology" not in scenarios.SCENARIOS

    def test_register_validates_params_eagerly(self):
        with pytest.raises(ScenarioError, match="no parameter"):
            scenarios.register_scenario(
                "tmp-bad-param",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                workload_params={"txns": 5},
            )
        assert "tmp-bad-param" not in scenarios.SCENARIOS

    def test_dynamics_params_without_dynamics_rejected(self):
        with pytest.raises(ScenarioError, match="no dynamics ingredient"):
            scenarios.register_scenario(
                "tmp-dangling-dynamics",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                dynamics_params={"preset": "volatile"},
            )
        assert "tmp-dangling-dynamics" not in scenarios.SCENARIOS

    def test_duplicate_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            scenarios.register_scenario(
                "ripple-default",
                "duplicate",
                topology="ripple-synthetic",
                workload="ripple-trace",
            )


class TestEvalMatrix:
    def test_smoke_without_report_rejected(self):
        with pytest.raises(ScenarioError, match="smoke=True"):
            scenarios.register_scenario(
                "tmp-smoke-no-report",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                eval_matrix=scenarios.EvalMatrix(smoke=True),
            )
        assert "tmp-smoke-no-report" not in scenarios.SCENARIOS

    def test_default_matrix_opts_out_of_report(self):
        matrix = scenarios.get_scenario("ripple-bursty").eval_matrix
        assert not matrix.report and not matrix.smoke

    def test_config_selects_smoke_pair(self):
        matrix = scenarios.EvalMatrix(
            report=True, runs=3, transactions=250, smoke_runs=2,
            smoke_transactions=30,
        )
        assert matrix.config(smoke=False) == (3, 250)
        assert matrix.config(smoke=True) == (2, 30)

    def test_report_scenarios_sorted_and_flagged(self):
        full = scenarios.report_scenarios()
        assert [s.name for s in full] == sorted(s.name for s in full)
        assert all(s.eval_matrix.report for s in full)
        smoke = scenarios.report_scenarios(smoke=True)
        assert {s.name for s in smoke} <= {s.name for s in full}
        assert all(s.eval_matrix.smoke for s in smoke)


class TestScenarioEngine:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ScenarioError, match="unknown engine"):
            scenarios.register_scenario(
                "tmp-bad-engine",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                engine="warp",
            )
        assert "tmp-bad-engine" not in scenarios.SCENARIOS

    def test_engine_params_require_concurrent(self):
        with pytest.raises(ScenarioError, match="engine='sequential'"):
            scenarios.register_scenario(
                "tmp-dangling-engine-params",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                engine_params={"load": 10.0},
            )
        assert "tmp-dangling-engine-params" not in scenarios.SCENARIOS

    def test_bad_engine_params_rejected_eagerly(self):
        with pytest.raises(ScenarioError, match="unknown concurrency parameter"):
            scenarios.register_scenario(
                "tmp-bad-engine-params",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                engine="concurrent",
                engine_params={"lod": 10.0},
            )
        assert "tmp-bad-engine-params" not in scenarios.SCENARIOS

    def test_catalog_registers_concurrency_scenarios(self):
        # Satellite acceptance: >= 2 concurrency scenarios in the catalog.
        concurrent = [
            s for s in scenarios.iter_scenarios() if s.engine == "concurrent"
        ]
        assert len(concurrent) >= 2
        names = {s.name for s in concurrent}
        assert "payment-storm" in names and "timeout-stress" in names
        for scenario in concurrent:
            assert "@ concurrent" in scenario.ingredients()


class TestFaultIngredients:
    def test_fault_params_without_fault_rejected(self):
        with pytest.raises(ScenarioError, match="no fault ingredient"):
            scenarios.register_scenario(
                "tmp-dangling-fault-params",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                fault_params={"channels": 4},
            )
        assert "tmp-dangling-fault-params" not in scenarios.SCENARIOS

    def test_bad_fault_params_rejected_eagerly(self):
        with pytest.raises(ScenarioError, match="bad fault_params"):
            scenarios.register_scenario(
                "tmp-bad-fault-params",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                faults="jamming",
                fault_params={"fraction": 1.5},
            )
        assert "tmp-bad-fault-params" not in scenarios.SCENARIOS

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault"):
            scenarios.register_scenario(
                "tmp-unknown-fault",
                "broken",
                topology="ripple-synthetic",
                workload="ripple-trace",
                faults="emp-blast",
            )
        assert "tmp-unknown-fault" not in scenarios.SCENARIOS

    def test_fault_overrides_need_a_fault_ingredient(self):
        scenario = scenarios.get_scenario("ripple-default")
        with pytest.raises(ScenarioError, match="no fault ingredient"):
            scenario.factory(fault_overrides={"channels": 4})

    def test_catalog_registers_attack_scenarios(self):
        # Acceptance: 4-6 attack scenarios covering every fault model.
        attacks = [
            s for s in scenarios.iter_scenarios() if s.faults is not None
        ]
        assert 4 <= len(attacks) <= 6
        assert {s.faults for s in attacks} == set(FAULTS.names())
        for scenario in attacks:
            assert f"! {scenario.faults}" in scenario.ingredients()

    def test_attack_scenario_builds_a_fault_plan(self):
        from repro.sim.faults import FaultPlan

        scenario = scenarios.get_scenario("jam-hubs")
        factory = scenario.factory(
            topology_overrides={"nodes": 150},
            workload_overrides={"transactions": 5},
        )
        built = factory(random.Random(7))
        assert len(built) == 4
        graph, workload, events, plan = built
        assert isinstance(plan, FaultPlan)
        assert isinstance(events, list)
        assert plan.events

    def test_fault_free_build_shape_is_unchanged(self):
        # The fault layer must not grow the build tuple of fault-free
        # scenarios (their goldens and store digests depend on it).
        built = scenarios.get_scenario("ripple-default").factory(
            workload_overrides={"transactions": 5}
        )(random.Random(7))
        assert len(built) == 2


class TestFeeMarketScenarios:
    def test_catalog_registers_fee_scenarios(self):
        fee = [
            s
            for s in scenarios.iter_scenarios()
            if s.dynamics == "fee-market"
        ]
        assert {s.name for s in fee} >= {
            "fee-market",
            "hub-pricing",
            "ripple-fees",
        }
        for scenario in fee:
            # Fee scenarios join the report matrix but never the smoke
            # pair (the smoke goldens predate the fee layer).
            assert scenario.eval_matrix.report
            assert not scenario.eval_matrix.smoke

    def test_fee_market_build_attaches_controller(self):
        from repro.network.feemarket import FeeMarketController

        factory = scenarios.get_scenario("fee-market").factory(
            topology_overrides={"nodes": 60},
            workload_overrides={"transactions": 5},
        )
        graph, workload, events = factory(random.Random(7))
        # The dynamics builder emits no churn: the "dynamics" is the
        # controller riding on the graph, ticked on the gossip cadence.
        assert events == []
        assert graph.policy_aware
        assert isinstance(graph.fee_controller, FeeMarketController)

    def test_dynamics_params_reach_the_controller(self):
        factory = scenarios.get_scenario("fee-market").factory(
            topology_overrides={"nodes": 60},
            workload_overrides={"transactions": 5},
            dynamics_overrides={"hubs": 3, "sensitivity": 9.0},
        )
        graph, _, _ = factory(random.Random(7))
        assert graph.fee_controller.hubs == 3
        assert graph.fee_controller.sensitivity == 9.0

    def test_controller_survives_graph_copy(self):
        # Runs work on copies; losing the controller (or the policies)
        # in copy() would silently turn the market static.
        factory = scenarios.get_scenario("fee-market").factory(
            topology_overrides={"nodes": 60},
            workload_overrides={"transactions": 5},
        )
        graph, _, _ = factory(random.Random(7))
        clone = graph.copy()
        assert clone.policy_aware
        assert clone.fee_controller == graph.fee_controller


class TestCatalogRoundTrip:
    """Every listed name must resolve and build a runnable scenario."""

    def test_catalog_is_substantial(self):
        # The acceptance floor: >= 6 scenarios, >= 2 loader-backed.
        assert len(scenarios.scenario_names()) >= 6
        loader_backed = [
            s
            for s in scenarios.iter_scenarios()
            if "snapshot" in s.topology
        ]
        assert len(loader_backed) >= 2

    @pytest.mark.parametrize("name", scenarios.scenario_names())
    def test_name_resolves_and_builds(self, name):
        scenario = scenarios.get_scenario(name)
        factory = scenario.factory(workload_overrides={"transactions": 5})
        built = factory(random.Random(7))
        graph, workload = built[0], built[1]
        assert graph.num_nodes() > 0
        # Streaming scenarios build a WorkloadStream; it must be
        # restartable (every scheme replays the same sequence) and
        # materialize to the same shape a list workload has.
        assert isinstance(workload, (Workload, WorkloadStream))
        if isinstance(workload, WorkloadStream):
            assert workload.restartable
            assert workload.length == 5
            workload = workload.materialize()
        assert len(workload) == 5
        nodes = set(graph.nodes)
        for txn in workload:
            assert txn.sender in nodes and txn.receiver in nodes
        if len(built) == 3:
            assert isinstance(built[2], list)

    def test_dynamics_overrides_require_dynamics(self):
        scenario = scenarios.get_scenario("ripple-default")
        with pytest.raises(ScenarioError, match="no dynamics ingredient"):
            scenario.factory(dynamics_overrides={"preset": "volatile"})

    def test_copy_reinterns_from_its_own_adjacency(self):
        # A clone's tie-breaking must not depend on the source graph's
        # compact-cache warmth: the snapshot is rebuilt per copy.
        factory = scenarios.get_scenario("ripple-snapshot").factory(
            workload_overrides={"transactions": 1}
        )
        graph, _ = factory(random.Random(0))
        graph.compact()  # warm the source cache
        clone = graph.copy()
        cold = graph.copy()
        assert clone.compact() is not graph.compact()
        assert clone.compact().neighbor_idx == cold.compact().neighbor_idx
        assert clone.compact().nodes == cold.compact().nodes

    def test_factory_accepts_topology_overrides(self):
        factory = scenarios.get_scenario("ripple-default").factory(
            topology_overrides={"nodes": 40, "edges": 120},
            workload_overrides={"transactions": 3},
        )
        graph, _ = factory(random.Random(1))
        assert graph.num_nodes() == 40

    def test_runner_resolves_scenario_names(self):
        factory = resolve_scenario("ripple-default")
        graph, workload = factory(random.Random(3))
        assert graph.num_nodes() == 150
        with pytest.raises(ScenarioError, match="unknown scenario"):
            resolve_scenario("no-such-scenario")

    def test_dynamics_scenario_generates_events(self):
        # Long enough horizon that the volatile preset must fire.
        factory = scenarios.get_scenario("ripple-churn").factory(
            workload_overrides={"transactions": 120},
            dynamics_overrides={"preset": "volatile"},
        )
        graph, workload, events = factory(random.Random(11))
        assert events, "volatile churn over a multi-hour horizon fired nothing"
        assert all(e.time <= workload[len(workload) - 1].time for e in events)


def public_functions(module):
    for name in sorted(vars(module)):
        if name.startswith("_"):
            continue
        obj = vars(module)[name]
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield name, obj
            for method_name, method in vars(obj).items():
                if not method_name.startswith("_") and inspect.isfunction(method):
                    yield f"{name}.{method_name}", method


class TestDocstrings:
    """Satellite requirement: registry entry points must be documented."""

    def test_registry_module_public_api_documented(self):
        from repro.scenarios import loaders, registry

        for module in (registry, loaders):
            assert module.__doc__
            for name, obj in public_functions(module):
                assert obj.__doc__, f"{module.__name__}.{name} has no docstring"

    def test_every_registered_builder_documented(self):
        for registry in (TOPOLOGIES, WORKLOADS, DYNAMICS, FAULTS):
            for name in registry.names():
                entry = registry.get(name)
                assert entry.builder.__doc__, (
                    f"{registry.kind} {name!r} builder has no docstring"
                )
                assert entry.description

    def test_runner_and_compact_public_api_documented(self):
        from repro.network import compact
        from repro.sim import concurrent, runner

        for module in (runner, compact, concurrent):
            assert module.__doc__
            for name, obj in public_functions(module):
                assert obj.__doc__, f"{module.__name__}.{name} has no docstring"
