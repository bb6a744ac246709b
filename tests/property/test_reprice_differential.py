"""Differential fuzz: one-pass slot repricing against the per-direction loop.

:meth:`FeeMarketController.update` reprices every priced direction in
one pass over the ``fee_rate`` array of the graph's compact snapshot,
and the channels' :class:`ChannelPolicy` records catch up only when
read.  The reference below is the loop that array replaced: read each
priced direction's record, compute its new rate, and write it back with
``dataclasses.replace`` and ``set_channel_policy``.

Graphs built from one seed go through the same history: random traffic,
repricing ticks, churn opens and closes, a compaction rebuild,
``copy()``, ``set_channel_policy()`` and a legacy fee assigner.  The
reference loop reprices one of them and the controller the others.
After every tick the ``changed`` flag, the policy records and the
snapshot's per-slot policy arrays must be equal, under both kernel
backends.  One controller graph has all its records read after every
tick, the other only a random subset, so some of its records stay stale
across several ticks.  Superseded snapshots must keep their arrays, and
``cheapest_path`` over a repriced snapshot must agree with the other
backend's kernel over a snapshot built from the reference's records.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.network.compact import (
    CompactTopology,
    get_default_backend,
    numpy_available,
    set_default_backend,
)
from repro.network.feemarket import FeeMarketController
from repro.network.fees import ChannelPolicy, LinearFee
from repro.network.graph import ChannelGraph, assign_uniform_fees
from repro.network.paths import cheapest_path

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


@contextmanager
def _backend(name: str):
    previous = get_default_backend()
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def reference_update(
    controller: FeeMarketController, graph: ChannelGraph
) -> bool:
    """The per-direction repricing loop the slot pass replaced."""
    traffic = graph.traffic
    changed = False
    for u in controller.priced_nodes(graph):
        for v in graph.neighbors(u):
            policy = graph.channel_policy(u, v)
            capacity = graph.total_capacity(u, v)
            if capacity <= 0:
                continue
            utilization = traffic.get((u, v), 0.0) / capacity
            rate = policy.fee_rate * (
                controller.decay + controller.sensitivity * utilization
            )
            rate = min(controller.max_rate, max(controller.min_rate, rate))
            if rate != policy.fee_rate:
                graph.set_channel_policy(u, v, replace(policy, fee_rate=rate))
                changed = True
    traffic.clear()
    return changed


def _node_ids(n: int) -> list:
    """Mixed int and str ids, so no sort order over nodes can be assumed."""
    return [i if i % 3 else f"n{i}" for i in range(n)]


def _random_policy(rng: random.Random) -> ChannelPolicy:
    htlc_min = rng.choice([0.0, 0.0, 2.0])
    return ChannelPolicy(
        base_fee=rng.choice([0.0, 0.1, 0.5]),
        fee_rate=rng.choice([0.0, 0.001, rng.uniform(0.0005, 0.08)]),
        cltv_delta=rng.randrange(10, 150),
        htlc_min=htlc_min,
        htlc_max=rng.choice([float("inf"), 300.0, max(htlc_min, 80.0)]),
    )


def _build(seed: int) -> ChannelGraph:
    """A priced graph with legacy and zero-capacity directions in it."""
    rng = random.Random(seed)
    nodes = _node_ids(rng.randrange(18, 30))
    graph = ChannelGraph()
    for node in nodes:
        graph.add_node(node)
    for i, a in enumerate(nodes[1:], start=1):
        # A spanning tree first, then random chords.
        b = nodes[rng.randrange(i)]
        graph.add_channel(a, b, rng.uniform(20, 120), rng.uniform(20, 120))
    for _ in range(len(nodes)):
        a, b = rng.sample(nodes, 2)
        if not graph.has_channel(a, b):
            fee = LinearFee(base=0.2, rate=0.01)
            if rng.random() < 0.7:
                fee = None
            graph.add_channel(
                a, b, rng.uniform(20, 120), rng.uniform(0, 120),
                fee_ab=fee, fee_ba=fee,
            )
    # Zero capacity: the controller skips both directions.
    a, b = rng.sample(nodes, 2)
    if graph.has_channel(a, b):
        graph.remove_channel(a, b)
    graph.add_channel(a, b, 0.0, 0.0, fee_ab=LinearFee(rate=0.02))
    graph.set_channel_policy(b, a, _random_policy(rng))
    # Price most directions; the rest keep their legacy record, which
    # reads as DEFAULT_POLICY once the graph is policy-aware.
    for channel in graph.channels():
        for src, dst in ((channel.a, channel.b), (channel.b, channel.a)):
            if rng.random() < 0.8:
                graph.set_channel_policy(src, dst, _random_policy(rng))
    return graph


def _directions(graph: ChannelGraph) -> list[tuple]:
    return [(u, v) for u, row in graph.adjacency().items() for v in row]


def _assert_records_equal(graph, reference, directions) -> None:
    for u, v in directions:
        assert graph.channel_policy(u, v) == reference.channel_policy(u, v)
        assert graph.fee_policy(u, v) == reference.fee_policy(u, v)


def _assert_arrays_equal(graph, reference) -> None:
    mine = graph.compact()
    theirs = reference.compact()
    assert graph.policy_aware == reference.policy_aware
    if not graph.policy_aware:
        return
    assert mine.policy_version == graph.policy_version
    for u, v in _directions(graph):
        slot = mine.slot_of(mine.index_of(u), mine.index_of(v))
        ref = theirs.slot_of(theirs.index_of(u), theirs.index_of(v))
        for array, ref_array in zip(mine._policy_arrays, theirs._policy_arrays):
            assert array[slot] == ref_array[ref]


def _assert_cheapest_paths_agree(graph, reference, rng, backend) -> None:
    """The graph's kernel against the other backend's, rebuilt from records.

    The records are the reference's: reading the graph's own would
    bring all of them up to date and hide a stale one from later checks.
    """
    other = "python"
    if backend == "python" and numpy_available():
        other = "numpy"
    fresh = CompactTopology.from_adjacency(reference.adjacency(), backend=other)
    fresh.install_policies(reference.channel_policy, version=1)
    snapshot = graph.compact()
    nodes = graph.nodes
    for _ in range(6):
        a, b = rng.sample(nodes, 2)
        amount = rng.choice([1.0, 10.0, 60.0])
        assert cheapest_path(snapshot, a, b, amount) == cheapest_path(
            fresh, a, b, amount
        )


def _add_traffic(rng, graphs, directions) -> None:
    for _ in range(rng.randrange(0, 8)):
        u, v = rng.choice(directions)
        amount = rng.choice([rng.uniform(0.5, 40.0), 1e-3, 250.0])
        for graph in graphs:
            graph.note_traffic(u, v, amount)


def _churn(rng, graphs, ops: int) -> None:
    """Identical opens and closes on every graph of ``graphs``."""
    first = graphs[0]
    for _ in range(ops):
        if rng.random() < 0.5:
            a, b = rng.sample(first.nodes, 2)
            if first.has_channel(a, b):
                continue
            balances = (rng.uniform(5, 60), rng.uniform(5, 60))
            fee = rng.choice(
                [None, LinearFee(rate=0.03), _random_policy(rng)]
            )
            for graph in graphs:
                graph.add_channel(a, b, *balances, fee_ab=fee)
        else:
            channel = rng.choice(list(first.channels()))
            for graph in graphs:
                graph.remove_channel(channel.a, channel.b)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("hubs", [0, 5])
@pytest.mark.parametrize("seed", range(6))
def test_slot_pass_matches_per_direction_loop(seed, hubs, backend):
    rng = random.Random(9_000 + 31 * seed + hubs)
    controller = FeeMarketController(
        hubs=hubs,
        min_rate=rng.choice([0.0005, 0.001]),
        max_rate=rng.choice([0.05, 0.1]),
        sensitivity=rng.choice([1.0, 4.0]),
        decay=rng.choice([0.9, 0.97, 1.0]),
    )
    with _backend(backend):
        # ``eager`` has every record read after every tick; ``lazy``
        # only a random fifth, so most of its records stay stale
        # across several ticks, copies and churn.
        eager, lazy, reference = _build(seed), _build(seed), _build(seed)
        assert lazy.compact().backend == backend
        rebuilt = False
        for tick in range(14):
            graphs = (lazy, eager, reference)
            _add_traffic(rng, graphs, _directions(lazy))
            superseded = lazy.compact()
            kept = [list(array) for array in superseded._policy_arrays]
            step = rng.random()
            if step < 0.3:
                _churn(rng, graphs, rng.randrange(1, 4))
            elif step < 0.4:
                lazy, eager, reference = (each.copy() for each in graphs)
            elif step < 0.5:
                a, b = rng.choice(_directions(lazy))
                policy = _random_policy(rng)
                for each in graphs:
                    each.set_channel_policy(a, b, policy)
            if tick == 7:
                # Enough churn to cross the compaction threshold, so
                # the next compact() renumbers every slot.
                _churn(rng, (lazy, eager, reference), 80)
            if tick == 11:
                # A legacy assigner overwrites every record at once.
                for each in (lazy, eager, reference):
                    assign_uniform_fees(each, base=0.1, rate=0.01)
            changed = reference_update(controller, reference)
            for graph in (lazy, eager):
                assert controller.update(graph, float(tick)) == changed
                assert graph.traffic == {}
                _assert_arrays_equal(graph, reference)
            snapshot = lazy.compact()
            if snapshot.num_slots == snapshot.live_slots and tick >= 7:
                rebuilt = True
            if snapshot is not superseded:
                # The superseded snapshot keeps the arrays it had.
                arrays = superseded._policy_arrays
                for array, before in zip(arrays, kept):
                    assert array[: len(before)] == before
            directions = _directions(lazy)
            _assert_records_equal(eager, reference, directions)
            if tick % 4 == 3:
                _assert_records_equal(lazy, reference, directions)
            else:
                sample = rng.sample(directions, len(directions) // 5)
                _assert_records_equal(lazy, reference, sample)
            for graph in (lazy, eager):
                _assert_cheapest_paths_agree(graph, reference, rng, backend)
        assert rebuilt
        _assert_records_equal(lazy, reference, _directions(lazy))


def test_first_tick_on_a_graph_without_policies():
    """Legacy records read as DEFAULT_POLICY and get priced at the floor."""
    graphs = []
    for _ in range(2):
        graph = ChannelGraph()
        graph.add_channel(1, "x", 50.0, 50.0, fee_ab=LinearFee(rate=0.02))
        graph.add_channel("x", 2, 50.0, 50.0)
        graph.add_channel(2, 3, 0.0, 0.0)
        graphs.append(graph)
    graph, reference = graphs
    controller = FeeMarketController(min_rate=0.002)
    assert controller.update(graph, 0.0) == reference_update(
        controller, reference
    )
    assert graph.policy_aware and reference.policy_aware
    assert graph.channel_policy(1, "x") == ChannelPolicy(fee_rate=0.002)
    _assert_records_equal(graph, reference, _directions(graph))
    _assert_arrays_equal(graph, reference)
    # The zero-capacity channel keeps its legacy (free) record.
    assert graph.channel_policy(2, 3).fee_rate == 0.0


def test_no_change_leaves_a_graph_without_policies_alone():
    graph = ChannelGraph()
    graph.add_channel(1, 2, 50.0, 50.0)
    assert FeeMarketController(min_rate=0.0).update(graph, 0.0) is False
    assert not graph.policy_aware
    assert graph.compact().fee_rates is None
