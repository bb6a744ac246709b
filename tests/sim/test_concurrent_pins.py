"""Literal digests of list-backed concurrent-engine runs.

The CLI goldens print rounded columns; these pin every stored metric
(``to_record()``) and every per-payment record of each paper scheme at
full float precision.  The four runs cover the engine's branches on a
list workload: structural timeouts (``timeout-stress``), multi-part
fan-out with per-part retries (``mpp-storm``), churn with engine-level
retries (``ripple-churn``) and a fault plan with its resilience family
(``ripple-default`` under ``partition``).

The tie case pins the queue's tie-break on a list workload: a payment
start scheduled for the same instant as an earlier payment's settle
runs first, because every start of a list workload takes its sequence
number before the run begins.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

import repro.scenarios as scenarios
from repro.network.graph import ChannelGraph
from repro.sim.concurrent import ConcurrencyConfig, run_concurrent_simulation
from repro.sim.factories import (
    paper_benchmark_factories,
    shortest_path_factory,
)
from repro.sim.runner import (
    DEFAULT_MICE_FRACTION,
    _single_run,
    resolve_run_config,
)
from repro.traces.workload import Transaction, Workload

SEED = 0
TRANSACTIONS = 150

#: (scenario, fault model or None) -> scheme -> digest.
PINS = {
    ("timeout-stress", None): {
        "Flash": "a1a12844e15612f8",
        "Spider": "60bc58abc0bcf2fe",
        "SpeedyMurmurs": "941b2a8a8cf3b922",
        "Shortest Path": "3a6efd3f522b2b99",
    },
    ("mpp-storm", None): {
        "Flash": "7e165c2ca9540ead",
        "Spider": "d433bc63f2936105",
        "SpeedyMurmurs": "87ceaca96d3f70e1",
        "Shortest Path": "bf46a57548561ede",
    },
    ("ripple-churn", None): {
        "Flash": "9772c90920fd4a6f",
        "Spider": "2bf7892c2401bf0c",
        "SpeedyMurmurs": "b2eeb814da56308f",
        "Shortest Path": "f839e1643a63343f",
    },
    ("ripple-default", "partition"): {
        "Flash": "4c2e033896adf9ea",
        "Spider": "aed03c06496a5173",
        "SpeedyMurmurs": "f3cfee6074417cbb",
        "Shortest Path": "a7f74a3864c844a2",
    },
}


def _digests(name: str, fault: str | None) -> dict[str, str]:
    scenario = scenarios.get_scenario(name)
    if fault is not None:
        scenario = dataclasses.replace(scenario, faults=fault, fault_params={})
    factory = scenario.factory(
        workload_overrides={"transactions": TRANSACTIONS}
    )
    results = _single_run(
        factory,
        paper_benchmark_factories(),
        SEED,
        DEFAULT_MICE_FRACTION,
        0,
        resolve_run_config(name, "concurrent"),
    )
    digests = {}
    for scheme, result in results.items():
        assert len(result.records) == TRANSACTIONS
        text = json.dumps(result.to_record()) + "\n" + repr(result.records)
        digests[scheme] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return digests


@pytest.mark.parametrize(
    "name,fault",
    sorted(PINS, key=str),
    ids=lambda value: str(value or "no-fault"),
)
def test_concurrent_list_run_is_pinned(name, fault):
    assert _digests(name, fault) == PINS[(name, fault)]


def test_start_runs_before_a_settle_at_the_same_instant():
    # A-B and B-C funded only on the A side, so a C->A payment can route
    # only once an A->C payment has settled.  Every path has 2 hops and
    # settles 2 * 0.5 * 2 = 2.0 s after it is reserved.
    graph = ChannelGraph()
    graph.add_channel("A", "B", 100.0, 0.0)
    graph.add_channel("B", "C", 100.0, 0.0)
    workload = Workload(
        [
            Transaction(txid, sender, receiver, amount, time)
            for txid, (sender, receiver, amount, time) in enumerate(
                [
                    ("A", "C", 60.0, 0.0),
                    ("A", "C", 60.0, 1.0),
                    ("C", "A", 50.0, 2.0),
                    ("A", "C", 30.0, 3.0),
                    ("C", "A", 40.0, 4.0),
                ]
            )
        ]
    )
    result = run_concurrent_simulation(
        graph,
        shortest_path_factory(),
        workload,
        rng=random.Random(0),
        config=ConcurrencyConfig(
            hop_latency=0.5, timeout=5.0, max_retries=1, retry_delay=1.0
        ),
    )
    # At t=2 payment 2 starts before payment 0 settles, so it finds no
    # C-side balance and succeeds only on its retry at t=3; payment 1's
    # retry, also at t=2, still finds 40 of the 60 it needs.
    assert [
        (record.success, record.latency, record.retries)
        for record in result.records
    ] == [
        (True, 2.0, 0),
        (False, 1.0, 1),
        (True, 3.0, 1),
        (True, 2.0, 0),
        (True, 3.0, 1),
    ]
