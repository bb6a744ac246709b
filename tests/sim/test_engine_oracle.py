"""The sequential engine reproduces the one-payment-at-a-time loop.

``run_simulation`` is the concurrent engine's event loop at zero
contention: no hop latency, no retries and the trace's own arrival
times, so no two payments overlap in flight and each must route exactly
as the former sequential loop (``tests/engine_reference.py``) routed
it.  Each case builds one seeded scenario and runs every paper scheme
through ``_single_run`` twice on the same build and router seeds, once
on the engine and once with the runner bound to the reference loop,
then compares every per-payment record field, the stored metrics
(``to_record()``) and, under a fault plan, the resilience family.  Two
crafted Flash elephants, whose paths cross one channel twice, check
that a payment settling at once executes netted per channel, as the
former loop did.

The reference loop has no multi-part path; a sequential MPP run follows
the engine's one set of MPP rules and is pinned by digest instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

import engine_reference as reference
import repro.scenarios as scenarios
from repro.network.feemarket import FeeMarketController
from repro.network.graph import ChannelGraph
from repro.sim import runner
from repro.sim.engine import run_simulation
from repro.sim.factories import flash_factory, paper_benchmark_factories
from repro.sim.metrics import TransactionRecord
from repro.sim.mpp import MppConfig
from repro.sim.runner import DEFAULT_MICE_FRACTION, RunConfig, _single_run
from repro.traces.workload import Transaction, Workload

#: Every field of a ``TransactionRecord``.
FIELDS = tuple(field.name for field in dataclasses.fields(TransactionRecord))

TRANSACTIONS = 200


def _engine_and_reference(factory, seed, config=RunConfig()):
    factories = paper_benchmark_factories()
    engine = _single_run(
        factory, factories, seed, DEFAULT_MICE_FRACTION, 0, config
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "run_simulation", reference.run_simulation)
        patch.setattr(
            runner, "run_dynamic_simulation", reference.run_dynamic_simulation
        )
        expected = _single_run(
            factory, factories, seed, DEFAULT_MICE_FRACTION, 0, config
        )
    return engine, expected


def _scenario_factory(name, fault=None):
    scenario = scenarios.get_scenario(name)
    if fault is not None:
        scenario = dataclasses.replace(scenario, faults=fault, fault_params={})
    return scenario.factory(workload_overrides={"transactions": TRANSACTIONS})


def _differences(engine, expected) -> list[str]:
    problems = []
    for scheme, wanted in expected.items():
        actual = engine[scheme]
        assert len(wanted.records) == len(actual.records) == TRANSACTIONS
        for one, other in zip(wanted.records, actual.records):
            problems.extend(
                f"{scheme} txid {one.txid} {field}: "
                f"{getattr(one, field)!r} != {getattr(other, field)!r}"
                for field in FIELDS
                if getattr(one, field) != getattr(other, field)
            )
        if wanted.to_record() != actual.to_record():
            problems.append(
                f"{scheme} record: {wanted.to_record()} != {actual.to_record()}"
            )
        if wanted.resilience != actual.resilience:
            problems.append(
                f"{scheme} resilience: {wanted.resilience} != "
                f"{actual.resilience}"
            )
    return problems


CASES = [
    ("ripple-default", None),
    ("lightning-default", None),
    ("ripple-churn", None),
    ("ripple-jammed", None),
    ("hub-pricing", None),
    ("ripple-default", "hub-kill"),
    ("ripple-default", "liquidity-drain"),
    ("ripple-default", "partition"),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "name,fault", CASES, ids=lambda value: str(value or "no-fault")
)
def test_zero_contention_concurrent_engine_matches_sequential(
    name, fault, seed
):
    engine, expected = _engine_and_reference(
        _scenario_factory(name, fault), seed
    )
    if fault is not None or scenarios.get_scenario(name).faults:
        assert all(result.resilience for result in engine.values())
    assert _differences(engine, expected) == []


@pytest.mark.parametrize("name", ["fee-market", "ripple-fees"])
def test_policy_aware_multipath_failure_matches_sequential(name):
    # Both scenarios reach failed multi-path executes; each costs one
    # payment message per hop of every part on both sides.
    engine, expected = _engine_and_reference(_scenario_factory(name), 0)
    assert _differences(engine, expected) == []


#: Name -> ``(channels, amount)``: one Flash elephant from ``s`` to
#: ``t`` whose two max-flow paths cross one channel twice.
CRAFTED = {
    # The first path takes a -> b; the second, through the residual
    # reverse edge, b -> a, on a channel with nothing on b's side.  The
    # split fits only with the opposite flows netted out.
    "reverse-hop": (
        [
            ("s", "a", 10.0, 0.0), ("a", "b", 10.0, 0.0),
            ("b", "t", 10.0, 0.0), ("s", "c", 10.0, 0.0),
            ("c", "e", 10.0, 0.0), ("e", "b", 10.0, 0.0),
            ("a", "d", 10.0, 0.0), ("d", "f", 10.0, 0.0),
            ("f", "t", 10.0, 0.0),
        ],
        20.0,
    ),
    # Both paths leave s over s - a: netted, s's balance falls by their
    # sum in one subtraction (0.6, where two give 0.6000000000000001).
    "shared-hop": (
        [
            ("s", "a", 1.0, 0.0), ("a", "b", 5.0, 0.0),
            ("b", "t", 0.2, 0.0), ("a", "c", 5.0, 0.0),
            ("c", "t", 0.2, 0.0),
        ],
        0.4,
    ),
}


def _crafted_graph(channels):
    graph = ChannelGraph()
    for a, b, balance_a, balance_b in channels:
        graph.add_channel(a, b, balance_a, balance_b)
    return graph


def _balances(graph):
    return [
        (channel.a, channel.b, channel.balance_ab, channel.balance_ba)
        for channel in graph.channels()
    ]


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_netted_multipath_execute_matches_sequential(name):
    # A whole payment that settles at its start executes netted per
    # channel, as the former loop's ``NetworkView.try_execute`` did.
    channels, amount = CRAFTED[name]
    workload = Workload([Transaction(0, "s", "t", amount)])
    engine_graph = _crafted_graph(channels)
    reference_graph = _crafted_graph(channels)
    engine = run_simulation(
        engine_graph, flash_factory(), workload, copy_graph=False
    )
    expected = reference.run_simulation(
        reference_graph, flash_factory(), workload, copy_graph=False
    )
    assert expected.records[0].success
    assert expected.records[0].paths_used == 2
    assert engine.records == expected.records
    assert _balances(engine_graph) == _balances(reference_graph)
    assert engine_graph.total_held() == 0


#: Scheme -> digest of a sequential MPP run (``ripple-default``, seed 0).
MPP_PINS = {
    "Flash": "1c9d83f67f6e50e7",
    "Spider": "962fc382d8bf3470",
    "SpeedyMurmurs": "59e83ea8d0019e56",
    "Shortest Path": "58faf3d66dd8a062",
}


def test_mpp_sequential_run_is_pinned():
    results = _single_run(
        _scenario_factory("ripple-default"),
        paper_benchmark_factories(),
        0,
        DEFAULT_MICE_FRACTION,
        0,
        RunConfig(mpp=MppConfig(max_parts=4)),
    )
    digests = {}
    for scheme, result in results.items():
        assert result.engine == "sequential"
        assert len(result.records) == TRANSACTIONS
        text = json.dumps(result.to_record()) + "\n" + repr(result.records)
        digests[scheme] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == MPP_PINS


def test_fee_controller_first_tick_turns_on_the_fee_family():
    # No policies at build: the fee controller's first gossip tick makes
    # the graph policy-aware mid-run, and from then on both loops book
    # every settled payment's fee revenue.
    base = _scenario_factory("ripple-default")

    def factory(rng):
        graph, workload = base(rng)
        assert not graph.policy_aware
        graph.fee_controller = FeeMarketController()
        return graph, workload

    engine, expected = _engine_and_reference(factory, 3)
    for scheme, wanted in expected.items():
        assert wanted.fees["hub_revenue"] > 0
    assert _differences(engine, expected) == []
