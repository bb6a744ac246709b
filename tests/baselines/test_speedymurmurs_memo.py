"""Differential test: SpeedyMurmurs' next-hop memo against the memo-free walk.

Two copies of one seeded, priced graph each get a router seeded alike:
the memoizing :class:`SpeedyMurmursRouter`, and the reference of
``tests/greedy_reference.py``, which rescans every step with a visited
set and re-embeds on every gossip tick.  A seeded workload whose
receivers mostly recur goes through both in three phases:

1. from the start;
2. after a structural tick: the last hop of a recent walk closes and a
   new channel opens, and the last payments of phase 1 are replayed
   first, so walks come back to the closed hop;
3. after a fee-only tick: the fee market reprices, no structure changes.

After every payment the outcomes (success, delivered, transfers, fee)
and the routers' ``rng.getstate()`` must be equal.  Barabási-Albert
graphs have few distance ties; on the grid most steps tie, so
``rng.choice`` draws on nearly every walk.  One variant shrinks the memo
limit so that the memo is dropped between most payments.
"""

from __future__ import annotations

import random

import pytest

from greedy_reference import ReferenceSpeedyMurmursRouter
from repro.baselines import speedymurmurs
from repro.baselines.speedymurmurs import SpeedyMurmursRouter
from repro.network.dynamics import ChannelEvent, ChannelEventType
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    grid_topology,
    uniform_sampler,
)
from repro.network.view import NetworkView
from repro.traces.workload import Transaction

PAYMENTS_PER_PHASE = 120
REPLAYED = 15


def _ba_graph(seed: int):
    rng = random.Random(seed)
    return build_channel_graph(
        barabasi_albert_edges(60, 2, rng), uniform_sampler(40.0, 160.0), rng
    )


def _grid_graph(seed: int):
    return grid_topology(5, 5, balance=100.0)


class _StepCountingReference(ReferenceSpeedyMurmursRouter):
    """The reference, counting the steps of the walks it finds."""

    steps = 0

    def _greedy_path(self, *args):
        path = super()._greedy_path(*args)
        if path is not None:
            self.steps += len(path) - 1
        return path


def _world(build, seed: int, router_cls):
    graph = build(seed)
    assign_market_policies(graph, random.Random(seed), initial_rate=0.01)
    return graph, router_cls(NetworkView(graph), rng=random.Random(seed))


def _payments(rng, nodes, receivers, count, first_txid):
    payments = []
    for txid in range(first_txid, first_txid + count):
        pool = receivers if rng.random() < 0.8 else nodes
        receiver = rng.choice(pool)
        sender = rng.choice([node for node in nodes if node != receiver])
        payments.append(
            Transaction(txid, sender, receiver, rng.uniform(1.0, 15.0))
        )
    return payments


def _route_both(memo, reference, payments):
    """Route every payment through both routers; return the outcomes."""
    outcomes = []
    for payment in payments:
        got = memo.route(payment)
        assert got == reference.route(payment), payment
        assert memo.rng.getstate() == reference.rng.getstate(), payment
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("limit", [None, 3], ids=["memo", "tiny-limit"])
@pytest.mark.parametrize(
    "build, seed",
    [(_ba_graph, 0), (_ba_graph, 1), (_ba_graph, 2), (_grid_graph, 0)],
    ids=["ba-0", "ba-1", "ba-2", "grid"],
)
def test_memo_walks_like_the_reference(build, seed, limit, monkeypatch):
    if limit is not None:
        monkeypatch.setattr(speedymurmurs, "_NEXT_HOP_LIMIT", limit)
    memo_graph, memo = _world(build, seed, SpeedyMurmursRouter)
    reference_graph, reference = _world(build, seed, _StepCountingReference)
    rng = random.Random(1000 + seed)
    nodes = memo_graph.nodes
    receivers = rng.sample(nodes, 5)

    payments = _payments(rng, nodes, receivers, PAYMENTS_PER_PHASE, 0)
    outcomes = _route_both(memo, reference, payments)

    # Structural tick: close the last hop of the latest delivered walk,
    # open a channel between two strangers.
    delivered = [outcome for outcome in outcomes if outcome.success]
    path = delivered[-1].transfers[0][0]
    closed = (path[-2], path[-1])
    while True:
        opened = tuple(rng.sample(nodes, 2))
        if not memo_graph.has_channel(*opened):
            break
    batch = (
        ChannelEvent(1.0, ChannelEventType.CLOSE, *closed),
        ChannelEvent(1.0, ChannelEventType.OPEN, *opened, 100.0, 100.0),
    )
    for graph, router in ((memo_graph, memo), (reference_graph, reference)):
        graph.remove_channel(*closed)
        graph.add_channel(*opened, 100.0, 100.0)
        router.on_topology_update(events=batch)
    steps_before = reference.steps
    replay = [
        Transaction(PAYMENTS_PER_PHASE + i, p.sender, p.receiver, p.amount)
        for i, p in enumerate(payments[-REPLAYED:])
    ]
    _route_both(
        memo,
        reference,
        replay
        + _payments(
            rng, nodes, receivers, PAYMENTS_PER_PHASE, 2 * PAYMENTS_PER_PHASE
        ),
    )

    # Fee-only tick: the market reprices every direction; no structure moves.
    for graph, router in ((memo_graph, memo), (reference_graph, reference)):
        assert FeeMarketController(decay=0.5).update(graph, 2.0)
        router.on_topology_update(events=())
    _route_both(
        memo,
        reference,
        _payments(rng, nodes, receivers, PAYMENTS_PER_PHASE, 3 * PAYMENTS_PER_PHASE),
    )

    if limit is None:
        # Since the structural tick, the memo answered some of the steps.
        assert 0 < memo._next_hop_entries < reference.steps - steps_before
    if build is _grid_graph:
        # Ties drew from the rng.
        assert memo.rng.getstate() != random.Random(seed).getstate()
