"""The sequential engine is the concurrent engine at zero contention.

With no hop latency, no retries, an unreachable timeout and the trace's
own arrival times, no two payments of the concurrent engine overlap in
flight, so it must route every payment exactly as the sequential engine
does.  Each case builds one seeded scenario and runs every paper scheme
through both engines on the same build and router seed, then compares
every field the two engines' per-payment records share (and, under a
fault plan, the resilience family).

``load=1.0`` on purpose: the concurrent engine divides every timestamp
by ``load``, so a tiny load rescales the fault windows and moves the
last digits of ``adversary_escrow``.

Two divergences are known and pinned as strict xfails: multi-part
payments, and the messages a failed multi-path execute costs, which the
fee-priced scenarios reach.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.scenarios as scenarios
from repro.network.feemarket import FeeMarketController
from repro.sim.concurrent import ConcurrencyConfig
from repro.sim.factories import paper_benchmark_factories
from repro.sim.mpp import MppConfig
from repro.sim.runner import DEFAULT_MICE_FRACTION, RunConfig, _single_run

#: The concurrent engine with nothing to contend over.
ZERO_CONTENTION = ConcurrencyConfig(
    hop_latency=0.0, load=1.0, timeout=1e9, max_retries=0
)

#: Every field both engines' ``TransactionRecord``s carry.
SHARED_FIELDS = (
    "txid",
    "success",
    "amount",
    "fee",
    "is_elephant",
    "probe_messages",
    "payment_messages",
    "paths_used",
    "parts",
    "partial_releases",
)

TRANSACTIONS = 200


def _both_engines(name, seed, fault=None, mpp=None):
    scenario = scenarios.get_scenario(name)
    if fault is not None:
        scenario = dataclasses.replace(scenario, faults=fault, fault_params={})
    factory = scenario.factory(workload_overrides={"transactions": TRANSACTIONS})
    factories = paper_benchmark_factories()
    sequential, concurrent = (
        _single_run(
            factory,
            factories,
            seed,
            DEFAULT_MICE_FRACTION,
            0,
            RunConfig(concurrency=concurrency, mpp=mpp),
        )
        for concurrency in (None, ZERO_CONTENTION)
    )
    return sequential, concurrent


def _differences(sequential, concurrent) -> list[str]:
    problems = []
    for scheme, expected in sequential.items():
        actual = concurrent[scheme]
        assert len(expected.records) == len(actual.records) == TRANSACTIONS
        for one, other in zip(expected.records, actual.records):
            problems.extend(
                f"{scheme} txid {one.txid} {field}: "
                f"{getattr(one, field)!r} != {getattr(other, field)!r}"
                for field in SHARED_FIELDS
                if getattr(one, field) != getattr(other, field)
            )
        if expected.resilience != actual.resilience:
            problems.append(
                f"{scheme} resilience: {expected.resilience} != "
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
    sequential, concurrent = _both_engines(name, seed, fault=fault)
    if fault is not None or scenarios.get_scenario(name).faults:
        assert all(result.resilience for result in sequential.values())
    assert _differences(sequential, concurrent) == []


@pytest.mark.xfail(
    strict=True,
    reason="MPP: the sequential engine's execute_parts_atomically and the "
    "concurrent engine's inline fan-out count and retry parts differently",
)
def test_mpp_matches_sequential():
    sequential, concurrent = _both_engines(
        "ripple-default", 0, mpp=MppConfig(max_parts=4)
    )
    assert _differences(sequential, concurrent) == []


@pytest.mark.xfail(
    strict=True,
    reason="a failed multi-path execute: the sequential view charges a "
    "payment message for every hop of every part, the concurrent view "
    "only for the hops it reached",
)
@pytest.mark.parametrize("name", ["fee-market", "ripple-fees"])
def test_policy_aware_multipath_failure_matches_sequential(name):
    sequential, concurrent = _both_engines(name, 0)
    assert _differences(sequential, concurrent) == []


def test_fee_controller_first_tick_turns_on_the_fee_family():
    # No policies at build: the fee controller's first gossip tick makes
    # the graph policy-aware mid-run, and from then on both engines
    # book every settled payment's fee revenue.
    base = scenarios.get_scenario("ripple-default").factory(
        workload_overrides={"transactions": TRANSACTIONS}
    )

    def factory(rng):
        graph, workload = base(rng)
        assert not graph.policy_aware
        graph.fee_controller = FeeMarketController()
        return graph, workload

    sequential, concurrent = (
        _single_run(
            factory,
            paper_benchmark_factories(),
            3,
            DEFAULT_MICE_FRACTION,
            0,
            RunConfig(concurrency=concurrency),
        )
        for concurrency in (None, ZERO_CONTENTION)
    )
    for scheme, expected in sequential.items():
        assert expected.fees["hub_revenue"] > 0
        assert concurrent[scheme].fees == expected.fees
