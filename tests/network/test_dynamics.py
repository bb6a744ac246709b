"""Tests for topology dynamics: churn, gossip, dynamic simulation."""

import random

import pytest

from repro.errors import TopologyError
from repro.network.dynamics import (
    CHURN_PRESETS,
    ChannelEvent,
    ChannelEventType,
    ChurnModel,
    ChurnPreset,
    GossipSchedule,
    churn_events_for,
    run_dynamic_simulation,
)
from repro.network.topology import grid_topology, ripple_like_topology
from repro.sim.factories import flash_factory
from repro.traces.generators import generate_ripple_workload


def open_event(time, a, b, funds=100.0):
    return ChannelEvent(
        time=time,
        kind=ChannelEventType.OPEN,
        a=a,
        b=b,
        balance_a=funds,
        balance_b=funds,
    )


def close_event(time, a, b):
    return ChannelEvent(time=time, kind=ChannelEventType.CLOSE, a=a, b=b)


class TestChurnModel:
    def test_events_ordered_and_bounded(self, grid_graph):
        model = ChurnModel(
            grid_graph, random.Random(0), opens_per_hour=30, closes_per_hour=30
        )
        events = model.generate(3_600.0)
        times = [event.time for event in events]
        assert times == sorted(times)
        assert all(0 <= t < 3_600.0 for t in times)
        assert len(events) > 10  # ~60 expected

    def test_zero_rates_no_events(self, grid_graph):
        model = ChurnModel(
            grid_graph, random.Random(0), opens_per_hour=0, closes_per_hour=0
        )
        assert model.generate(3_600.0) == []

    def test_negative_rate_rejected(self, grid_graph):
        with pytest.raises(TopologyError):
            ChurnModel(grid_graph, random.Random(0), opens_per_hour=-1)


class TestChurnPresets:
    def test_known_presets_cover_the_paper_regimes(self):
        assert {"calm", "hourly", "volatile"} <= set(CHURN_PRESETS)
        for preset in CHURN_PRESETS.values():
            assert preset.description

    def test_events_from_named_preset(self, grid_graph):
        events = churn_events_for(
            grid_graph, random.Random(1), 50 * 3_600.0, preset="hourly"
        )
        # ~50 opens + ~50 closes expected over 50 hours; allow wide slack.
        assert 40 <= len(events) <= 170
        times = [event.time for event in events]
        assert times == sorted(times)
        assert all(0.0 <= t < 50 * 3_600.0 for t in times)

    def test_preset_rates_ordered(self, grid_graph):
        def count(name):
            return len(
                churn_events_for(
                    grid_graph, random.Random(3), 100 * 3_600.0, preset=name
                )
            )

        assert count("calm") < count("hourly") < count("volatile")

    def test_custom_preset_object_accepted(self, grid_graph):
        preset = ChurnPreset(
            name="x", description="d", opens_per_hour=5.0, closes_per_hour=0.0
        )
        events = churn_events_for(
            grid_graph, random.Random(2), 10 * 3_600.0, preset=preset
        )
        assert events
        assert all(event.kind is ChannelEventType.OPEN for event in events)

    def test_unknown_preset_rejected(self, grid_graph):
        with pytest.raises(TopologyError, match="unknown churn preset"):
            churn_events_for(grid_graph, random.Random(0), 10.0, preset="wild")


class _RecordingRouter:
    def __init__(self):
        self.updates = 0

    def on_topology_update(self, events=None):
        self.updates += 1


class _EventsAwareRouter:
    """A router whose hook takes the applied-event batch."""

    def __init__(self):
        self.batches = []

    def on_topology_update(self, events=None):
        self.batches.append(events)


class TestGossipSchedule:
    def test_open_applies(self, grid_graph):
        schedule = GossipSchedule(
            graph=grid_graph, events=[open_event(10.0, 0, 8)]
        )
        schedule.advance_to(20.0)
        assert grid_graph.has_channel(0, 8)

    def test_close_applies(self, grid_graph):
        schedule = GossipSchedule(
            graph=grid_graph, events=[close_event(10.0, 0, 1)]
        )
        schedule.advance_to(20.0)
        assert not grid_graph.has_channel(0, 1)

    def test_future_events_not_applied(self, grid_graph):
        schedule = GossipSchedule(
            graph=grid_graph, events=[close_event(100.0, 0, 1)]
        )
        schedule.advance_to(50.0)
        assert grid_graph.has_channel(0, 1)

    def test_duplicate_open_ignored(self, grid_graph):
        schedule = GossipSchedule(
            graph=grid_graph, events=[open_event(1.0, 0, 1)]
        )
        assert schedule.advance_to(5.0) == 0

    def test_close_of_missing_channel_ignored(self, grid_graph):
        schedule = GossipSchedule(
            graph=grid_graph, events=[close_event(1.0, 0, 8)]
        )
        assert schedule.advance_to(5.0) == 0

    def test_gossip_batched_by_period(self, grid_graph):
        router = _RecordingRouter()
        schedule = GossipSchedule(
            graph=grid_graph,
            events=[close_event(10.0, 0, 1), close_event(20.0, 1, 2)],
            gossip_period=600.0,
        )
        schedule.register(router)
        schedule.advance_to(30.0)  # both events applied, period not elapsed
        assert router.updates <= 1
        schedule.advance_to(700.0)
        assert router.updates >= 1

    def test_tick_without_pending_is_noop(self, grid_graph):
        router = _RecordingRouter()
        schedule = GossipSchedule(graph=grid_graph, events=[])
        schedule.register(router)
        schedule.advance_to(1_000.0)
        assert router.updates == 0

    def test_apply_due_applies_without_gossip(self, grid_graph):
        # Events take effect at their time; routers hear of them only
        # at the next tick (advance_to), which the engine runs when a
        # payment starts.
        router = _RecordingRouter()
        schedule = GossipSchedule(
            graph=grid_graph, events=[close_event(10.0, 0, 1)]
        )
        schedule.register(router)
        assert schedule.apply_due(700.0) == 1
        assert not grid_graph.has_channel(0, 1)
        assert router.updates == 0
        assert schedule.advance_to(700.0) == 0
        assert router.updates == 1

    def test_events_aware_hook_receives_applied_batch(self, grid_graph):
        router = _EventsAwareRouter()
        legacy = _RecordingRouter()
        events = [
            close_event(1.0, 0, 1),
            close_event(2.0, 0, 8),  # no such channel: refused, not gossiped
            open_event(3.0, 0, 8),
        ]
        schedule = GossipSchedule(
            graph=grid_graph, events=events, gossip_period=0.0
        )
        schedule.register(router)
        schedule.register(legacy)
        schedule.advance_to(10.0)
        assert legacy.updates == 1
        (batch,) = router.batches
        assert [
            (event.kind, event.a, event.b) for event in batch
        ] == [
            (ChannelEventType.CLOSE, 0, 1),
            (ChannelEventType.OPEN, 0, 8),
        ]
        # The batch resets per tick: a later event arrives alone.
        grid_graph.add_channel(20, 21, 5.0, 5.0)
        schedule.events = list(schedule.events) + [close_event(20.0, 20, 21)]
        schedule.advance_to(30.0)
        assert len(router.batches) == 2
        assert [(e.a, e.b) for e in router.batches[1]] == [(20, 21)]

    def test_routers_seeded_via_init_field_are_gossiped(self, grid_graph):
        # Regression: routers passed through the dataclass ``routers``
        # field (not register()) must still be gossiped, with the
        # event batch for events-aware hooks.
        aware = _EventsAwareRouter()
        legacy = _RecordingRouter()
        schedule = GossipSchedule(
            graph=grid_graph,
            events=[close_event(1.0, 0, 1)],
            gossip_period=0.0,
            routers=[aware, legacy],
        )
        schedule.advance_to(5.0)
        assert legacy.updates == 1
        assert [(e.a, e.b) for e in aware.batches[0]] == [(0, 1)]

    def test_refused_close_keeps_version_and_every_cache(self, grid_graph):
        # Regression (incremental-maintenance contract): a close refused
        # because of in-flight escrow is a pure no-op — no version bump,
        # the compact snapshot survives untouched, and routing-table
        # layers keyed on it keep validating.
        from repro.core.routing_table import RoutingTable

        snapshot = grid_graph.compact()
        table = RoutingTable(m=2)
        table.lookup(0, 8, snapshot)
        layer = table._source_layers[0]
        version = grid_graph.topology_version
        grid_graph.hold(0, 1, 5.0)
        schedule = GossipSchedule(
            graph=grid_graph, events=[close_event(1.0, 0, 1)]
        )
        assert schedule.advance_to(10.0) == 0
        assert grid_graph.topology_version == version
        assert grid_graph.compact() is snapshot
        table.lookup(0, 8, grid_graph.compact())
        assert table._source_layers[0] is layer  # no recompute, no restamp


class TestDynamicSimulation:
    def test_runs_with_churn(self):
        rng = random.Random(5)
        graph = ripple_like_topology(rng, n_nodes=80, n_edges=400)
        graph.scale_balances(10.0)
        workload = generate_ripple_workload(rng, graph.nodes, 80)
        churn = ChurnModel(
            graph, random.Random(1), opens_per_hour=120, closes_per_hour=120
        )
        events = churn.generate(workload[-1].time)
        result = run_dynamic_simulation(
            graph,
            flash_factory(k=5, m=2),
            workload,
            events,
            rng=random.Random(2),
            gossip_period=300.0,
        )
        assert result.transactions == 80
        assert result.success_ratio > 0.3

    def test_input_graph_untouched(self):
        rng = random.Random(5)
        graph = grid_topology(4, 4, balance=100.0)
        workload = generate_ripple_workload(rng, graph.nodes, 20)
        events = [close_event(0.0, 0, 1)]
        run_dynamic_simulation(
            graph, flash_factory(k=3, m=2), workload, events, rng=random.Random(0)
        )
        assert graph.has_channel(0, 1)

    def test_probe_of_closed_channel_reads_dead(self, grid_graph):
        from repro.network.view import NetworkView

        view = NetworkView(grid_graph)
        grid_graph.remove_channel(1, 2)
        probe = view.probe_path([0, 1, 2])
        assert probe.balances == (100.0, 0.0)
        assert probe.bottleneck == 0.0
