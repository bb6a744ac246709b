"""Cross-layer conservation invariants for fee-aware execution.

The fee arithmetic is property-tested in isolation
(``tests/core/test_fee_arithmetic.py``); this module checks that the
*execution* layers respect it — that escrow, settle, and the engines
move exactly the funds the arithmetic says, end to end:

* a committed payment debits the sender by ``amounts[0]``, credits the
  receiver with the delivered amount, and pays each intermediary its
  :func:`fee_breakdown` share — exactly, at channel-balance level;
* an aborted reservation restores every balance bit-for-bit;
* whole simulations conserve total channel funds (fees move money
  between nodes, they never mint or burn it), under both engines;
* fee metrics are internally consistent (``fee_paid_total`` is the sum
  of successful records' fees; no single node earns more than all
  senders paid);
* fee-free runs carry **no** fee metrics — their records serialize
  byte-identically to the pre-fee library (the golden-pin guarantee).
"""

from __future__ import annotations

import random

import pytest

from repro.network.fees import ChannelPolicy
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.graph import ChannelGraph
from repro.network.view import NetworkView
from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
from repro.sim.engine import run_simulation
from repro.sim.factories import shortest_path_factory
from repro.sim.metrics import FEE_FAMILY
from repro.traces.generators import generate_ripple_workload
from repro.traces.workload import Transaction, Workload


def _total_funds(graph: ChannelGraph) -> float:
    return sum(
        channel.balance(*channel.endpoints())
        + channel.balance(*reversed(channel.endpoints()))
        for channel in graph.channels()
    )


def _node_funds(graph: ChannelGraph, node) -> float:
    return sum(graph.balance(node, peer) for peer in graph.neighbors(node))


def _priced_line() -> ChannelGraph:
    graph = ChannelGraph()
    graph.add_channel("a", "b", 100.0, 100.0)
    graph.add_channel("b", "c", 100.0, 100.0)
    graph.add_channel("c", "d", 100.0, 100.0)
    graph.set_channel_policy(
        "b", "c", ChannelPolicy(base_fee=0.5, fee_rate=0.1)
    )
    graph.set_channel_policy("c", "d", ChannelPolicy(fee_rate=0.05))
    return graph


class TestEscrowConservation:
    def test_commit_pays_exact_breakdown(self):
        graph = _priced_line()
        path = ["a", "b", "c", "d"]
        amount = 10.0
        amounts = graph.path_hop_amounts(path, amount)
        breakdown = graph.path_fee_breakdown(path, amount)
        before = {node: _node_funds(graph, node) for node in path}
        view = NetworkView(graph)
        with view.open_session() as session:
            assert session.try_reserve(path, amount)
            session.commit()
        # Sender pays delivered + fees; receiver gets the delivered
        # amount; each intermediary pockets exactly its breakdown share.
        assert _node_funds(graph, "a") == before["a"] - amounts[0]
        assert _node_funds(graph, "d") == before["d"] + amount
        for node in ("b", "c"):
            assert _node_funds(graph, node) == pytest.approx(
                before[node] + breakdown.get(node, 0.0), abs=1e-12
            )
        assert sum(breakdown.values()) == pytest.approx(
            amounts[0] - amount, abs=1e-12
        )

    def test_abort_restores_balances(self):
        graph = _priced_line()
        path = ["a", "b", "c", "d"]
        snapshot = {
            (u, v): graph.balance(u, v)
            for u in path
            for v in graph.neighbors(u)
        }
        view = NetworkView(graph)
        with view.open_session() as session:
            assert session.try_reserve(path, 10.0)
            session.abort()
        for (u, v), balance in snapshot.items():
            assert graph.balance(u, v) == balance

    def test_infeasible_reserve_rolls_back(self):
        graph = _priced_line()
        # 100 delivered compounds past the b->c balance; nothing sticks.
        snapshot = _total_funds(graph)
        view = NetworkView(graph)
        with view.open_session() as session:
            assert not session.try_reserve(["a", "b", "c", "d"], 99.0)
        assert _total_funds(graph) == snapshot


def _priced_scenario(rng: random.Random):
    from repro.network.topology import barabasi_albert_edges, build_channel_graph
    from repro.network.topology import uniform_sampler

    edges = barabasi_albert_edges(60, 2, rng)
    graph = build_channel_graph(edges, uniform_sampler(80.0, 200.0), rng)
    assign_market_policies(graph, rng, initial_rate=0.01, paper_mix=True)
    return graph


class TestRunConservation:
    @pytest.mark.parametrize("seed", range(3))
    def test_sequential_run_conserves_funds(self, seed):
        rng = random.Random(2_000 + seed)
        graph = _priced_scenario(rng)
        workload = generate_ripple_workload(rng, graph.nodes, 80)
        working = graph.copy()
        funds_before = _total_funds(working)
        result = run_simulation(
            working,
            shortest_path_factory(),
            workload,
            rng=random.Random(1),
            copy_graph=False,
        )
        assert _total_funds(working) == pytest.approx(
            funds_before, rel=1e-12
        )
        assert result.fees
        successful = [r for r in result.records if r.success]
        assert result.fees["fee_paid_total"] == pytest.approx(
            sum(r.fee for r in successful)
        )
        # No node can earn more than all senders paid together.
        assert (
            result.fees["hub_revenue"]
            <= result.fees["fee_paid_total"] + 1e-9
        )
        if successful:
            assert result.fees["fee_p50"] >= 0.0

    @pytest.mark.parametrize("seed", range(2))
    def test_concurrent_run_conserves_funds(self, seed):
        rng = random.Random(3_000 + seed)
        graph = _priced_scenario(rng)
        graph.fee_controller = FeeMarketController(sensitivity=6.0)
        workload = generate_ripple_workload(rng, graph.nodes, 60)
        funds_before = _total_funds(graph)
        result = run_concurrent_simulation(
            graph,
            shortest_path_factory(),
            workload,
            rng=random.Random(1),
            config=ConcurrencyConfig(load=40.0),
        )
        # The engine copies; the input graph is untouched and the copy
        # (in-flight holds all resolved) conserved its funds.
        assert _total_funds(graph) == funds_before
        assert result.fees
        assert (
            result.fees["hub_revenue"]
            <= result.fees["fee_paid_total"] + 1e-9
        )


class TestFeeFreeRunsStayPinned:
    def test_no_fee_metrics_without_policies(self):
        rng = random.Random(11)
        from repro.network.topology import grid_topology

        graph = grid_topology(5, 5, balance=60.0)
        workload = generate_ripple_workload(rng, graph.nodes, 30)
        result = run_simulation(
            graph, shortest_path_factory(), workload, rng=random.Random(1)
        )
        assert result.fees == {}
        record = result.to_record()
        for field in FEE_FAMILY.fields:
            assert field not in record

    def test_stored_result_roundtrip_both_shapes(self):
        # Records written before the fee layer existed (no fee keys)
        # must keep loading — fee metrics default to 0 — while priced
        # records round-trip their fee metrics exactly.  This is what
        # keeps old store directories resumable.
        from repro.sim.metrics import SimulationResult

        rng = random.Random(21)
        priced = _priced_scenario(rng)
        workload = generate_ripple_workload(rng, priced.nodes, 40)
        result = run_simulation(
            priced, shortest_path_factory(), workload, rng=random.Random(1)
        )
        assert result.fees
        restored = SimulationResult.from_record("sp", result.to_record())
        assert restored.fee_paid_total == result.fees["fee_paid_total"]
        assert restored.fee_p50 == result.fees["fee_p50"]
        assert restored.hub_revenue == result.fees["hub_revenue"]

        legacy = {
            key: value
            for key, value in result.to_record().items()
            if key not in FEE_FAMILY.fields
        }
        pre_fee = SimulationResult.from_record("sp", legacy)
        assert pre_fee.fee_paid_total == 0.0
        assert pre_fee.fee_p50 == 0.0
        assert pre_fee.hub_revenue == 0.0

    def test_single_transaction_record_shape(self):
        # A degenerate but valid workload keeps the fee-free record
        # schema stable even at the edges.
        graph = ChannelGraph()
        graph.add_channel("a", "b", 50.0, 50.0)
        workload = Workload([Transaction(0, "a", "b", 5.0, 0.0)])
        result = run_simulation(
            graph, shortest_path_factory(), workload, rng=random.Random(1)
        )
        assert result.fees == {}
        assert set(FEE_FAMILY.fields).isdisjoint(result.to_record())
