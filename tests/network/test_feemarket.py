"""Fee-market controller unit tests: repricing rule, hub selection, gossip.

The end-to-end behaviour (scenarios, engines, metrics) is covered by
``tests/sim/test_fee_invariants.py`` and the property suites; this
module pins the :class:`FeeMarketController` mechanics in isolation —
the multiplicative update, its clamps, the deterministic hub ranking,
the traffic-signal lifecycle, and the schedule integration that makes
a repricing tick count as ``channel_update`` gossip.
"""

from __future__ import annotations

import random

import pytest

from repro.network.compact import CompactTopology
from repro.network.dynamics import GossipSchedule
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.fees import ChannelPolicy
from repro.network.graph import ChannelGraph


def _star(spokes: int = 4, balance: float = 100.0) -> ChannelGraph:
    graph = ChannelGraph()
    for i in range(spokes):
        graph.add_channel("hub", f"s{i}", balance, balance)
    return graph


def _price_all(graph: ChannelGraph, rate: float = 0.01) -> None:
    assign_market_policies(graph, random.Random(0), initial_rate=rate)


class TestAssignMarketPolicies:
    def test_prices_every_direction(self):
        graph = _star(4)
        priced = assign_market_policies(
            graph, random.Random(0), initial_rate=0.02
        )
        assert priced == 2 * 4
        assert graph.policy_aware
        for i in range(4):
            assert graph.channel_policy("hub", f"s{i}").fee_rate == 0.02
            assert graph.channel_policy(f"s{i}", "hub").fee_rate == 0.02

    def test_paper_mix_is_seed_deterministic(self):
        rates = []
        for _ in range(2):
            graph = _star(6)
            assign_market_policies(graph, random.Random(7), paper_mix=True)
            rates.append(
                [graph.channel_policy("hub", f"s{i}").fee_rate for i in range(6)]
            )
        assert rates[0] == rates[1]
        assert len(set(rates[0])) > 1  # a mix, not a uniform rate


class TestControllerUpdate:
    def test_idle_channels_decay_toward_min_rate(self):
        graph = _star()
        _price_all(graph, rate=0.01)
        controller = FeeMarketController(min_rate=0.001, decay=0.9)
        for _ in range(50):
            controller.update(graph, 0.0)
        for i in range(4):
            assert graph.channel_policy("hub", f"s{i}").fee_rate == 0.001

    def test_loaded_channels_surge_and_clamp(self):
        graph = _star()
        _price_all(graph, rate=0.01)
        controller = FeeMarketController(
            max_rate=0.10, sensitivity=4.0, decay=0.9
        )
        for _ in range(50):
            graph.note_traffic("hub", "s0", 150.0)  # utilization 0.75
            controller.update(graph, 0.0)
        assert graph.channel_policy("hub", "s0").fee_rate == 0.10
        # The idle spokes decayed to the floor meanwhile.
        assert graph.channel_policy("hub", "s1").fee_rate == 0.001

    def test_equilibrium_utilization_leaves_rate_fixed(self):
        graph = _star()
        _price_all(graph, rate=0.01)
        controller = FeeMarketController(sensitivity=4.0, decay=0.9)
        # factor = decay + sensitivity * u == 1  at  u = (1-decay)/sens.
        volume = (1 - 0.9) / 4.0 * graph.total_capacity("hub", "s0")
        graph.note_traffic("hub", "s0", volume)
        controller.update(graph, 0.0)
        assert graph.channel_policy("hub", "s0").fee_rate == pytest.approx(
            0.01
        )

    def test_update_clears_traffic_and_reports_change(self):
        graph = _star()
        _price_all(graph, rate=0.01)
        graph.note_traffic("hub", "s0", 50.0)
        controller = FeeMarketController()
        assert controller.update(graph, 0.0) is True
        assert graph.traffic == {}

    def test_update_returns_false_at_fixed_point(self):
        graph = _star()
        # Every direction already sits on the floor; idle decay is a
        # no-op and the controller must say so (no gossip pending).
        _price_all(graph, rate=0.001)
        controller = FeeMarketController(min_rate=0.001)
        assert controller.update(graph, 0.0) is False

    def test_tick_moves_policy_version_once_and_skips_reinstall(
        self, monkeypatch
    ):
        graph = _star()
        _price_all(graph, rate=0.01)
        graph.compact()
        installs = []
        install = CompactTopology.install_policies

        def counting(snapshot, lookup, version):
            installs.append(version)
            install(snapshot, lookup, version)

        monkeypatch.setattr(CompactTopology, "install_policies", counting)
        controller = FeeMarketController(decay=0.9)
        before = graph.policy_version
        for tick in range(1, 4):
            assert controller.update(graph, 0.0) is True
            assert graph.policy_version == before + tick
            assert graph.compact().policy_version == graph.policy_version
        assert installs == []

    def test_controller_is_stateless_across_graphs(self):
        controller = FeeMarketController(decay=0.5)
        for _ in range(2):
            graph = _star()
            _price_all(graph, rate=0.01)
            controller.update(graph, 0.0)
            assert graph.channel_policy("hub", "s0").fee_rate == 0.005


class TestHubSelection:
    def _ranked_graph(self) -> ChannelGraph:
        graph = ChannelGraph()
        # degrees: big=3, mid=2, and leaves below.
        graph.add_channel("big", "mid", 50.0, 50.0)
        graph.add_channel("big", "x", 50.0, 50.0)
        graph.add_channel("big", "y", 50.0, 50.0)
        graph.add_channel("mid", "x", 50.0, 50.0)
        return graph

    def test_hubs_zero_prices_everyone(self):
        graph = self._ranked_graph()
        controller = FeeMarketController(hubs=0)
        assert set(controller.priced_nodes(graph)) == set(graph.nodes)

    def test_hubs_k_selects_top_degree_deterministically(self):
        graph = self._ranked_graph()
        assert FeeMarketController(hubs=1).priced_nodes(graph) == ["big"]
        assert FeeMarketController(hubs=2).priced_nodes(graph) == [
            "big",
            "mid",
        ]
        # Degree ties break on repr(node): "x" (degree 2) before "y".
        assert FeeMarketController(hubs=3).priced_nodes(graph) == [
            "big",
            "mid",
            "x",
        ]

    def test_only_hub_directions_reprice(self):
        graph = self._ranked_graph()
        _price_all(graph, rate=0.01)
        FeeMarketController(hubs=1, decay=0.5).update(graph, 0.0)
        assert graph.channel_policy("big", "mid").fee_rate == 0.005
        # Non-hub directions keep their rate (mid->big is mid's edge).
        assert graph.channel_policy("mid", "big").fee_rate == 0.01


class TestGossipIntegration:
    def test_repricing_tick_triggers_gossip(self):
        graph = _star()
        _price_all(graph, rate=0.01)
        graph.fee_controller = FeeMarketController(decay=0.9)
        ticks = []

        class Router:
            def on_topology_update(self, events=None):
                ticks.append(True)

        schedule = GossipSchedule(graph, events=[], gossip_period=100.0)
        schedule.register(Router())
        # Within the first period: no controller tick, no gossip.
        schedule.advance_to(50.0)
        assert ticks == []
        # Period elapsed, idle decay changes rates -> gossip round.
        schedule.advance_to(100.0)
        assert ticks == [True]
        assert graph.channel_policy("hub", "s0").fee_rate == pytest.approx(
            0.009
        )

    def test_fixed_point_tick_stays_silent(self):
        graph = _star()
        _price_all(graph, rate=0.001)  # already at the floor
        updates = []

        class CountingController(FeeMarketController):
            def update(self, graph, now):
                updates.append(now)
                return super().update(graph, now)

        graph.fee_controller = CountingController(min_rate=0.001)
        ticks = []

        class Router:
            def on_topology_update(self, events=None):
                ticks.append(True)

        schedule = GossipSchedule(graph, events=[], gossip_period=600.0)
        schedule.register(Router())
        for now in (600.0, 601.0, 602.0, 603.0, 900.0, 1200.0):
            schedule.advance_to(now)
        assert ticks == []
        # A tick that changes no rate gossips nothing, yet the next tick
        # still waits a full period rather than running on every call.
        assert updates == [600.0, 1200.0]

    def test_policy_version_bumps_on_reprice(self):
        graph = _star()
        _price_all(graph, rate=0.01)
        graph.fee_controller = FeeMarketController(decay=0.9)
        before = graph.policy_version
        schedule = GossipSchedule(graph, events=[], gossip_period=100.0)
        schedule.advance_to(100.0)
        assert graph.policy_version > before
