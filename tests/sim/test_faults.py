"""Tests for the adversarial fault-injection layer (docs/RESILIENCE.md).

Covers: eager spec validation, deterministic compilation, the JAM/
DRAIN/force-CLOSE event semantics at the channel level, hold release on
mid-flight force-close (the stranded-escrow regression), seed
determinism of faulted runs on both engines (serial and forked), and
the resilience metric family's exact arithmetic.
"""

import random
from types import SimpleNamespace

import pytest

import repro.scenarios as scenarios
from repro.network.dynamics import (
    ChannelEvent,
    ChannelEventType,
    GossipSchedule,
    run_dynamic_simulation,
)
from repro.network.graph import ChannelGraph
from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
from repro.sim.factories import flash_factory, shortest_path_factory
from repro.sim.faults import (
    AttackWindow,
    FaultPlan,
    HubKillSpec,
    JammingSpec,
    LiquidityDrainSpec,
    PartitionSpec,
    approximate_edge_betweenness,
    compile_faults,
    resilience_metrics,
)
from repro.sim.metrics import RESILIENCE_FAMILY
from repro.sim.runner import run_comparison
from repro.traces.workload import Transaction, Workload


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


def scale_free_graph(seed: int = 0, nodes: int = 40) -> ChannelGraph:
    from repro.network.topology import (
        barabasi_albert_edges,
        build_channel_graph,
        uniform_sampler,
    )

    rng = random.Random(seed)
    edges = barabasi_albert_edges(nodes, 2, rng)
    return build_channel_graph(edges, uniform_sampler(60.0, 200.0), rng)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "spec_cls, kwargs",
        [
            (JammingSpec, {"channels": 0}),
            (JammingSpec, {"fraction": 1.5}),
            (JammingSpec, {"fraction": -0.1}),
            (JammingSpec, {"start_frac": 2.0}),
            (JammingSpec, {"jam_hold_time": 0.0}),
            (JammingSpec, {"samples": 0}),
            (HubKillSpec, {"hubs": 0}),
            (HubKillSpec, {"by": "pagerank"}),
            (HubKillSpec, {"start_frac": -0.5}),
            (LiquidityDrainSpec, {"channels": 0}),
            (LiquidityDrainSpec, {"fraction": 1.01}),
            (LiquidityDrainSpec, {"interval": 0.0}),
            (PartitionSpec, {"fraction": 0.0}),
            (PartitionSpec, {"fraction": 1.0}),
            (PartitionSpec, {"heal_frac": 0.0}),
        ],
    )
    def test_bad_params_fail_at_construction(self, spec_cls, kwargs):
        with pytest.raises(ValueError):
            spec_cls(**kwargs)

    def test_defaults_construct(self):
        for spec_cls in (
            JammingSpec,
            HubKillSpec,
            LiquidityDrainSpec,
            PartitionSpec,
        ):
            spec_cls()

    def test_compile_faults_rejects_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            compile_faults(JammingSpec(), line_graph(), random.Random(0), -1.0)

    def test_compile_faults_rejects_empty_spec_list(self):
        with pytest.raises(ValueError, match="at least one"):
            compile_faults([], line_graph(), random.Random(0), 100.0)


class TestCompilation:
    @pytest.mark.parametrize(
        "spec",
        [
            JammingSpec(channels=3, samples=8),
            HubKillSpec(hubs=2),
            HubKillSpec(hubs=2, by="capacity"),
            LiquidityDrainSpec(channels=4),
            PartitionSpec(),
        ],
        ids=lambda spec: type(spec).__name__,
    )
    def test_compile_is_deterministic(self, spec):
        graph = scale_free_graph(3)
        plan_a = spec.compile(graph, random.Random(7), 3_600.0)
        plan_b = spec.compile(scale_free_graph(3), random.Random(7), 3_600.0)
        assert plan_a == plan_b
        times = [event.time for event in plan_a.events]
        assert times == sorted(times)
        assert plan_a.events, "attack compiled to an empty event stream"
        for window in plan_a.windows:
            assert 0.0 <= window.start <= window.end <= 3_600.0

    def test_betweenness_ranks_the_bridge_highest(self):
        # Two cliques joined by one bridge: the bridge edge carries every
        # cross-clique shortest path, so it must rank first.
        graph = ChannelGraph()
        for group in ("LMN", "XYZ"):
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    graph.add_channel(a, b, 50.0, 50.0)
        graph.add_channel("N", "X", 50.0, 50.0)
        scores = approximate_edge_betweenness(graph, random.Random(0))
        top = max(scores.items(), key=lambda item: item[1])[0]
        assert top == ("N", "X")

    def test_merge_combines_windows_and_orders_events(self):
        graph = scale_free_graph(1)
        plan = compile_faults(
            [JammingSpec(channels=2, samples=8), HubKillSpec(hubs=1)],
            graph,
            random.Random(0),
            1_000.0,
        )
        assert len(plan.windows) == 2
        times = [event.time for event in plan.events]
        assert times == sorted(times)
        # Jamming heals; the hub kill is permanent (heal_time=None) and
        # must not erase the jamming heal under merge.
        assert plan.heal_time is not None


class TestEventSemantics:
    def test_jam_escrows_then_finalize_drains(self):
        graph = line_graph()
        plan = compile_faults(
            JammingSpec(
                channels=1,
                fraction=0.5,
                start_frac=0.0,
                duration_frac=1.0,
                jam_hold_time=50.0,
                samples=4,
            ),
            graph,
            random.Random(0),
            100.0,
        )
        schedule = GossipSchedule(graph=graph, events=list(plan.events))
        schedule.advance_to(10.0)
        assert graph.total_held() > 0.0  # adversary escrow live mid-attack
        schedule.advance_to(100.0)
        schedule.finalize(100.0)
        assert graph.total_held() == pytest.approx(0.0)
        assert schedule.adversary_escrow_seconds > 0.0

    def test_drain_moves_balance_and_conserves_funds(self):
        graph = ChannelGraph()
        graph.add_channel("A", "B", 80.0, 20.0)
        funds = graph.network_funds()
        plan = compile_faults(
            LiquidityDrainSpec(
                channels=1,
                fraction=0.5,
                start_frac=0.0,
                duration_frac=1.0,
                interval=50.0,
            ),
            graph,
            random.Random(0),
            100.0,
        )
        schedule = GossipSchedule(graph=graph, events=list(plan.events))
        schedule.advance_to(100.0)
        channel = graph.channel("A", "B")
        assert channel.balance("A", "B") < 80.0  # richer side drained
        assert graph.network_funds() == pytest.approx(funds)

    def test_force_close_releases_live_jam_holds(self):
        # Jam a channel, then force-close it while the jam is live: the
        # close must account and release the adversary escrow rather
        # than stranding it on a dead channel.
        graph = line_graph()
        events = [
            ChannelEvent(
                time=1.0,
                kind=ChannelEventType.JAM,
                a="A",
                b="B",
                fraction=0.5,
                tag="jam-0",
            ),
            ChannelEvent(
                time=5.0,
                kind=ChannelEventType.CLOSE,
                a="A",
                b="B",
                force=True,
            ),
        ]
        schedule = GossipSchedule(graph=graph, events=events)
        schedule.advance_to(10.0)
        schedule.finalize(10.0)
        from repro.errors import NoChannelError

        with pytest.raises(NoChannelError):
            graph.channel("A", "B")
        assert graph.total_held() == pytest.approx(0.0)
        assert schedule.adversary_escrow_seconds > 0.0


class TestMidFlightClose:
    def test_concurrent_close_releases_in_flight_holds(self):
        # A->C via B is in flight (settles at t=4) when B-C force-closes
        # at t=2: the payment must fail and every hold — including the
        # A-B hop that survives the close — must be released, not
        # stranded (the escrow-drained invariant under faults).
        graph = line_graph()
        plan = FaultPlan(
            events=(
                ChannelEvent(
                    time=2.0,
                    kind=ChannelEventType.CLOSE,
                    a="B",
                    b="C",
                    force=True,
                ),
            ),
            windows=(AttackWindow(0.0, 10.0),),
            heal_time=None,
        )
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            payments(("A", "C", 80.0, 0.0)),
            rng=random.Random(0),
            config=ConcurrencyConfig(hop_latency=1.0, max_retries=0),
            faults=plan,
            copy_graph=False,
        )
        assert [record.success for record in result.records] == [False]
        assert graph.total_held() == pytest.approx(0.0)
        surviving = graph.channel("A", "B")
        assert surviving.balance("A", "B") == pytest.approx(100.0)

    def test_sequential_dynamic_run_attaches_resilience(self):
        graph = scale_free_graph(2)
        rng = random.Random(0)
        from repro.traces.generators import generate_ripple_workload

        workload = generate_ripple_workload(rng, graph.nodes, 40)
        plan = compile_faults(
            JammingSpec(channels=2, samples=8),
            graph,
            rng,
            workload[len(workload) - 1].time,
        )
        result = run_dynamic_simulation(
            graph,
            flash_factory(k=4, m=2),
            workload,
            [],
            rng=random.Random(1),
            faults=plan,
            copy_graph=False,
        )
        assert set(result.resilience) == set(RESILIENCE_FAMILY.fields)
        assert graph.total_held() == pytest.approx(0.0)
        record = result.to_record()
        for name in RESILIENCE_FAMILY.fields:
            assert name in record


class TestSeedDeterminism:
    def scenario_factory(self):
        return scenarios.get_scenario("jam-hubs").factory(
            topology_overrides={"nodes": 150},
            workload_overrides={"transactions": 40},
        )

    def test_same_seed_same_records_both_engines(self):
        factory = self.scenario_factory()
        graph, workload, events, plan = factory(random.Random(11))
        runs = [
            run_dynamic_simulation(
                graph,
                flash_factory(k=4, m=2),
                workload,
                events,
                rng=random.Random(5),
                faults=plan,
            ).records
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        concurrent_runs = [
            run_concurrent_simulation(
                graph,
                flash_factory(k=4, m=2),
                workload,
                rng=random.Random(5),
                config=ConcurrencyConfig(load=50.0, timeout=5.0),
                events=events,
                faults=plan,
            ).records
            for _ in range(2)
        ]
        assert concurrent_runs[0] == concurrent_runs[1]

    def test_serial_and_forked_runs_agree(self):
        factory = self.scenario_factory()
        schemes = {"Flash": flash_factory(k=4, m=2)}
        serial = run_comparison(factory, schemes, runs=2, base_seed=3)
        forked = run_comparison(
            factory, schemes, runs=2, base_seed=3, workers=2
        )
        assert serial.metrics == forked.metrics
        assert serial.metrics["Flash"].adversary_escrow > 0.0


class TestResilienceMetrics:
    def test_exact_partition_of_attacked_and_control(self):
        times = list(range(100))
        records = [
            SimpleNamespace(success=not 30 <= t <= 50) for t in times
        ]
        plan = FaultPlan(
            events=(),
            windows=(AttackWindow(30.0, 50.0),),
            heal_time=50.0,
        )
        metrics = resilience_metrics(
            times, records, plan, adversary_escrow_seconds=12.5, horizon=99.0
        )
        assert metrics["attack_success_ratio"] == pytest.approx(0.0)
        assert metrics["control_success_ratio"] == pytest.approx(1.0)
        assert metrics["resilience_delta"] == pytest.approx(1.0)
        # post-heal samples start at t=50 (failed, inside the window);
        # the first 20-wide sliding window to reach the pre-attack
        # baseline (1.0) within epsilon covers t=50..69 at rate 0.95,
        # so recovery is measured at t=69 - heal(50) = 19.
        assert metrics["recovery_half_life"] == pytest.approx(19.0)
        assert metrics["adversary_escrow"] == pytest.approx(12.5)
        assert isinstance(metrics["adversary_escrow"], float)

    def test_no_heal_means_no_recovery_measurement(self):
        plan = FaultPlan(
            events=(), windows=(AttackWindow(10.0, 90.0),), heal_time=None
        )
        metrics = resilience_metrics(
            [0.0, 50.0],
            [SimpleNamespace(success=True), SimpleNamespace(success=False)],
            plan,
            adversary_escrow_seconds=0.0,
            horizon=100.0,
        )
        assert metrics["recovery_half_life"] == 0.0

    def test_never_recovering_run_pays_the_full_tail(self):
        times = list(range(100))
        records = [SimpleNamespace(success=t < 30) for t in times]
        plan = FaultPlan(
            events=(),
            windows=(AttackWindow(30.0, 50.0),),
            heal_time=50.0,
        )
        metrics = resilience_metrics(
            times, records, plan, adversary_escrow_seconds=0.0, horizon=99.0
        )
        assert metrics["recovery_half_life"] == pytest.approx(49.0)

    def test_empty_workload_is_all_zeros(self):
        plan = FaultPlan(events=(), windows=(), heal_time=None)
        metrics = resilience_metrics(
            [], [], plan, adversary_escrow_seconds=0.0, horizon=0.0
        )
        assert all(metrics[name] == 0.0 for name in RESILIENCE_FAMILY.fields)
