"""The MPP atomicity invariant, fuzzed: all-or-nothing, observably.

Multi-part payments fan a payment out into parts that escrow
independently and settle together (``docs/CONCURRENCY.md``,
"Multi-part payments").  The invariant this suite pins is the one the
feature's correctness rests on:

* **All-or-nothing accounting.**  On a fee-free graph every node's
  final balance equals its initial balance plus exactly the amounts of
  the *successful* payments it sent/received — failed multi-part
  payments, including those that reserved some parts and then aborted,
  contribute **zero** to every node's delta.  A partial settlement of
  any kind (one part's escrow converted while a sibling refunded)
  would show up as a fractional delta and fail the equality.
* **Escrow refunds are exact.**  After any run — serial, parallel,
  jammed, churned, fee-priced — total held escrow drains to zero and
  no balance bucket goes negative; aborted payments refund every
  part's escrow and fees exactly (their recorded ``fee`` is 0).
* **Fees conserve.**  On a policy-priced graph the fee a multi-part
  payment records equals the sum of the per-part ``fee_breakdown``
  shares over its transfers.
* **Adversary escrow never counts refunded sibling holds** — a fault
  window with no jam events reports exactly zero adversary escrow even
  when MPP aborts refund many sibling holds inside it.

Everything is seeded stdlib :mod:`random` (hypothesis draws only
seeds/enums), so any failure replays from its example.  The
fee-conservation cases also run with the full sweeps on the dict loops
of ``tests/bfs_reference.py`` (the ``sweeps`` fixture), and the
engine-equivalence cases compare a run on those loops.
"""

from __future__ import annotations

import random

import bfs_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.dynamics import ChurnModel, run_dynamic_simulation
from repro.network.feemarket import assign_market_policies
from repro.network.graph import ChannelGraph
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)
from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
from repro.sim.engine import run_simulation
from repro.sim.factories import (
    flash_factory,
    shortest_path_factory,
    spider_factory,
)
from repro.sim.faults import AttackWindow, FaultPlan, JammingSpec
from repro.sim.mpp import MppConfig
from repro.sim.runner import run_comparison
from repro.traces.generators import generate_ripple_workload


def pytest_approx(value, eps=1e-6):
    return pytest.approx(value, abs=eps)


#: Splits aggressively (threshold far below typical amounts) so the
#: suite exercises multi-part fan-out, retries, and aborts on most
#: payments rather than only on the elephant tail.
AGGRESSIVE_MPP = MppConfig(threshold=5.0, max_parts=3, part_retries=1)

FACTORIES = {
    "flash": lambda: flash_factory(k=4, m=2),
    "shortest": lambda: shortest_path_factory(),
    "spider": lambda: spider_factory(),
}


def random_scenario(seed: int, transactions: int = 40):
    rng = random.Random(seed)
    edges = barabasi_albert_edges(30, 2, rng)
    graph = build_channel_graph(edges, uniform_sampler(60.0, 200.0), rng)
    workload = generate_ripple_workload(rng, graph.nodes, transactions)
    return graph, workload


def node_balances(graph: ChannelGraph) -> dict:
    """Each node's total spendable balance across its channels."""
    totals: dict = {}
    for channel in graph.channels():
        totals[channel.a] = totals.get(channel.a, 0.0) + channel.balance(
            channel.a, channel.b
        )
        totals[channel.b] = totals.get(channel.b, 0.0) + channel.balance(
            channel.b, channel.a
        )
    return totals


def assert_balances_sane(graph: ChannelGraph) -> None:
    for channel in graph.channels():
        assert channel.balance(channel.a, channel.b) >= -1e-9
        assert channel.balance(channel.b, channel.a) >= -1e-9
        assert channel.held(channel.a, channel.b) >= -1e-9
        assert channel.held(channel.b, channel.a) >= -1e-9


def run_engine(engine: str, graph, factory, workload, seed: int, mpp):
    """Dispatch one MPP run through the named engine, mutating ``graph``."""
    if engine == "sequential":
        return run_simulation(
            graph, factory, workload, rng=random.Random(seed),
            copy_graph=False, mpp=mpp,
        )
    if engine == "dynamic":
        return run_dynamic_simulation(
            graph, factory, workload, [], rng=random.Random(seed),
            copy_graph=False, mpp=mpp,
        )
    return run_concurrent_simulation(
        graph, factory, workload, rng=random.Random(seed),
        config=ConcurrencyConfig(load=50.0, timeout=10.0, max_retries=2),
        copy_graph=False, mpp=mpp,
    )


def assert_all_or_nothing(graph, workload, result, before: dict) -> None:
    """The accounting form of atomicity, on a fee-free graph.

    Every node's delta must equal the sum of successful payment amounts
    it received minus those it sent — to float tolerance, with failed
    payments (aborted multi-part ones included) contributing nothing.
    """
    transactions = {tx.txid: tx for tx in workload}
    expected = dict(before)
    for record in result.records:
        if not record.success:
            # Aborted payments refund escrow AND fees exactly.
            assert record.fee == 0.0
            continue
        assert record.fee == 0.0  # fee-free graph
        tx = transactions[record.txid]
        expected[tx.sender] -= record.amount
        expected[tx.receiver] += record.amount
    after = node_balances(graph)
    assert set(after) == set(expected)
    for node, balance in after.items():
        assert balance == pytest_approx(expected[node], eps=1e-5), node


class TestAllOrNothingAccounting:
    """Exact per-node accounting on all three engines, fuzzed by seed."""

    @given(
        seed=st.integers(min_value=0, max_value=30),
        scheme=st.sampled_from(sorted(FACTORIES)),
        engine=st.sampled_from(["sequential", "dynamic", "concurrent"]),
    )
    @settings(max_examples=24, deadline=None)
    def test_partial_settlement_is_never_observable(
        self, seed, scheme, engine
    ):
        graph, workload = random_scenario(seed)
        before = node_balances(graph)
        funds = graph.network_funds()
        result = run_engine(
            engine, graph, FACTORIES[scheme](), workload, seed,
            AGGRESSIVE_MPP,
        )
        assert graph.network_funds() == pytest_approx(funds, eps=1e-5)
        assert graph.total_held() == pytest_approx(0.0)
        assert_balances_sane(graph)
        assert_all_or_nothing(graph, workload, result, before)
        # The run actually exercised multi-part machinery.
        assert any(r.parts > 1 for r in result.records)

    @given(
        seed=st.integers(min_value=0, max_value=12),
        split=st.sampled_from(["equal", "proportional", "flash"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_split_policy_is_atomic(self, seed, split):
        graph, workload = random_scenario(seed)
        before = node_balances(graph)
        mpp = MppConfig(threshold=5.0, max_parts=4, split=split)
        result = run_engine(
            "sequential", graph, flash_factory(k=4, m=2), workload, seed, mpp
        )
        assert graph.total_held() == pytest_approx(0.0)
        assert_all_or_nothing(graph, workload, result, before)


class TestInterleavings:
    """Funds conserve across jamming / churn / fee-market interleavings."""

    @given(
        seed=st.integers(min_value=0, max_value=12),
        engine=st.sampled_from(["dynamic", "concurrent"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_jamming_interleaving_conserves(self, seed, engine):
        graph, workload = random_scenario(seed)
        horizon = workload[len(workload) - 1].time
        plan = JammingSpec(
            channels=4, fraction=0.9, jam_hold_time=horizon / 4 or 1.0
        ).compile(graph, random.Random(seed + 7), horizon)
        funds = graph.network_funds()
        if engine == "concurrent":
            result = run_concurrent_simulation(
                graph, flash_factory(k=4, m=2), workload,
                rng=random.Random(seed),
                config=ConcurrencyConfig(load=50.0, timeout=10.0),
                faults=plan, copy_graph=False, mpp=AGGRESSIVE_MPP,
            )
        else:
            result = run_dynamic_simulation(
                graph, flash_factory(k=4, m=2), workload, [],
                rng=random.Random(seed),
                faults=plan, copy_graph=False, mpp=AGGRESSIVE_MPP,
            )
        # Jam holds release (never settle); deposits cannot move.
        assert graph.network_funds() == pytest_approx(funds, eps=1e-5)
        assert graph.total_held() == pytest_approx(0.0)
        assert_balances_sane(graph)
        assert any(r.parts > 1 for r in result.records)

    @given(seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=8, deadline=None)
    def test_churn_interleaving_drains_escrow(self, seed):
        graph, workload = random_scenario(seed)
        churn = ChurnModel(
            graph, random.Random(seed + 99),
            opens_per_hour=180.0, closes_per_hour=180.0,
        )
        events = churn.generate(workload[len(workload) - 1].time)
        run_dynamic_simulation(
            graph, flash_factory(k=4, m=2), workload, events,
            rng=random.Random(1), copy_graph=False, mpp=AGGRESSIVE_MPP,
        )
        assert graph.total_held() == pytest_approx(0.0)
        assert_balances_sane(graph)
        concurrent = random_scenario(seed)[0]
        run_concurrent_simulation(
            concurrent, flash_factory(k=4, m=2), workload,
            rng=random.Random(1),
            config=ConcurrencyConfig(load=50.0, timeout=5.0),
            events=events, copy_graph=False, mpp=AGGRESSIVE_MPP,
        )
        assert concurrent.total_held() == pytest_approx(0.0)
        assert_balances_sane(concurrent)

    @given(seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=8, deadline=None)
    def test_fee_market_interleaving_conserves(self, seed):
        # Fees move funds between nodes, never out of the network.
        graph, workload = random_scenario(seed)
        assign_market_policies(graph, random.Random(seed), paper_mix=True)
        funds = graph.network_funds()
        result = run_engine(
            "sequential", graph, flash_factory(k=4, m=2), workload, seed,
            AGGRESSIVE_MPP,
        )
        assert graph.network_funds() == pytest_approx(funds, eps=1e-5)
        assert graph.total_held() == pytest_approx(0.0)
        assert_balances_sane(graph)
        for record in result.records:
            if not record.success:
                assert record.fee == 0.0


class TestFeeConservation:
    """Satellite: per-part fee shares sum to the fee paid, both sweeps."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fee_shares_sum_to_fee(self, seed, sweeps):
        rng = random.Random(seed)
        edges = barabasi_albert_edges(30, 2, rng)
        graph = build_channel_graph(edges, uniform_sampler(80.0, 200.0), rng)
        assign_market_policies(graph, rng, paper_mix=True)
        workload = generate_ripple_workload(rng, graph.nodes, 25)
        outcomes: dict = {}

        def factory(view, workload, rng):
            router = flash_factory(k=4, m=2)(view, workload, rng)
            route = router.route

            def recorded(transaction):
                outcome = route(transaction)
                if outcome.success:
                    outcomes.setdefault(transaction.txid, []).append(outcome)
                return outcome

            router.route = recorded
            return router

        result = run_simulation(
            graph,
            factory,
            workload,
            rng=random.Random(seed),
            copy_graph=False,
            mpp=MppConfig(threshold=5.0, max_parts=3),
        )
        checked = 0
        for record in result.records:
            if not record.success or record.parts < 2:
                continue
            shares = sum(
                sum(graph.path_fee_breakdown(list(path), amount).values())
                for outcome in outcomes[record.txid]
                for path, amount in outcome.transfers
            )
            assert shares == pytest.approx(record.fee, abs=1e-12)
            checked += 1
        assert checked > 0
        assert graph.total_held() == pytest_approx(0.0)


class TestMppFaultCoverage:
    """Satellite: jammed parts release siblings; refunds never count as
    adversary escrow."""

    def test_jamming_releases_siblings_before_deadline(self):
        # Enough seeds that at least one multi-part payment meets a
        # jammed channel and aborts, refunding its siblings.
        releases = 0
        for seed in range(6):
            graph, workload = random_scenario(seed)
            horizon = workload[len(workload) - 1].time
            plan = JammingSpec(
                channels=6, fraction=0.95,
                start_frac=0.0, duration_frac=1.0,
                jam_hold_time=horizon or 1.0,
            ).compile(graph, random.Random(seed), horizon)
            result = run_concurrent_simulation(
                graph, shortest_path_factory(), workload,
                rng=random.Random(seed),
                config=ConcurrencyConfig(load=50.0, timeout=10.0),
                faults=plan, copy_graph=False,
                mpp=MppConfig(threshold=5.0, max_parts=3, deadline=30.0),
            )
            releases += sum(r.partial_releases for r in result.records)
            assert graph.total_held() == pytest_approx(0.0)
            # Sibling refunds resolve by the shared deadline: nothing
            # may stay escrowed past the run, jammed or not.
            assert_balances_sane(graph)
        assert releases > 0

    @pytest.mark.parametrize("engine", ["dynamic", "concurrent"])
    def test_adversary_escrow_excludes_refunded_siblings(self, engine):
        # A fault window with NO jam events: any adversary escrow the
        # metrics report could only come from mis-counting refunded MPP
        # sibling holds.  It must be exactly zero.
        graph, workload = random_scenario(3)
        horizon = workload[len(workload) - 1].time
        plan = FaultPlan(
            events=(),
            windows=(AttackWindow(0.0, horizon),),
            heal_time=horizon,
        )
        if engine == "concurrent":
            result = run_concurrent_simulation(
                graph, shortest_path_factory(), workload,
                rng=random.Random(3),
                config=ConcurrencyConfig(load=50.0, timeout=10.0),
                faults=plan, copy_graph=False, mpp=AGGRESSIVE_MPP,
            )
        else:
            result = run_dynamic_simulation(
                graph, shortest_path_factory(), workload, [],
                rng=random.Random(3),
                faults=plan, copy_graph=False, mpp=AGGRESSIVE_MPP,
            )
        assert sum(r.partial_releases for r in result.records) > 0
        assert result.resilience.get("adversary_escrow", 0.0) == 0.0


class TestParallelAndSweepEquivalence:
    """MPP metrics are identical serial vs workers=N, and with the full
    sweeps on the reference loops."""

    @staticmethod
    def _scenario(rng: random.Random):
        edges = barabasi_albert_edges(30, 2, rng)
        graph = build_channel_graph(edges, uniform_sampler(60.0, 200.0), rng)
        workload = generate_ripple_workload(rng, graph.nodes, 30)
        return graph, workload

    _MPP = {"threshold": 5.0, "max_parts": 3}

    @pytest.mark.parametrize("engine", ["sequential", "concurrent"])
    def test_workers_match_serial(self, engine, tmp_path):
        factories = {
            "Flash": flash_factory(k=4, m=2),
            "Shortest Path": shortest_path_factory(),
        }
        kwargs = dict(
            runs=2, base_seed=7, engine=engine, mpp_params=self._MPP
        )
        if engine == "concurrent":
            kwargs["engine_params"] = {"load": 50.0, "timeout": 10.0}
        serial = run_comparison(self._scenario, factories, **kwargs)
        parallel = run_comparison(
            self._scenario, factories, workers=2, **kwargs
        )
        assert serial.metrics == parallel.metrics
        assert any(
            m.parts_per_payment > 1.0 for m in serial.metrics.values()
        )

    @pytest.mark.parametrize("engine", ["sequential", "concurrent"])
    def test_sweeps_match_the_reference_loops(self, engine, monkeypatch):
        factories = {"Flash": flash_factory(k=4, m=2)}
        kwargs = dict(
            runs=2, base_seed=11, engine=engine, mpp_params=self._MPP
        )
        if engine == "concurrent":
            kwargs["engine_params"] = {"load": 50.0, "timeout": 10.0}
        with monkeypatch.context() as patch:
            reference.use_reference_sweeps(patch)
            expected = run_comparison(self._scenario, factories, **kwargs)
        result = run_comparison(self._scenario, factories, **kwargs)
        assert result.metrics == expected.metrics
