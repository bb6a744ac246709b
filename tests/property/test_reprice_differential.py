"""Differential fuzz: the fee market's array tick and its readers.

:meth:`FeeMarketController.update` reprices every priced direction by
writing a new ``fee_rate`` array for the graph's compact snapshot: the
idle decay of the funded priced slots is one array operation, and the
directions with traffic are priced one by one.  No
:class:`ChannelPolicy` record is written; the graph's readers read each
live rate off the array.  Three references check this:

* :func:`reference_update`, the loop the array replaced: read each
  priced direction's record, compute its new rate, and write it back
  with ``dataclasses.replace`` and ``set_channel_policy``.  After every
  tick the ``changed`` flag, the policy records and the snapshot's
  per-slot ``fee_rate`` array must be equal.  One controller graph has
  all its records read after every tick, the other only a random
  subset.  Superseded snapshots must keep their rates;
* :func:`scalar_tick`, the per-slot loop the array operation replaced,
  whose rate arrays must match the controller's bit for bit
  (``float.hex``), also with hubs, with no funded priced direction and
  with every rate on the floor;
* the records of a :func:`reference_update` graph, priced with
  :func:`hop_amounts` and :func:`fee_breakdown`, which
  ``path_hop_amounts``, ``path_fee``, ``path_fee_breakdown`` and the
  probes must match bit for bit, also with churn the last
  ``compact()`` has not seen.

Graphs built from one seed go through the same history: random traffic,
repricing ticks, churn opens and closes, a compaction rebuild,
``copy()``, ``set_channel_policy()`` and a legacy fee assigner.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.errors import NoChannelError
from repro.network.feemarket import FeeMarketController
from repro.network.fees import (
    DEFAULT_POLICY,
    ChannelPolicy,
    LinearFee,
    fee_breakdown,
    hop_amounts,
)
from repro.network.graph import ChannelGraph, assign_uniform_fees


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


def _assert_rates_equal(graph, reference) -> None:
    mine = graph.compact()
    theirs = reference.compact()
    assert graph.policy_aware == reference.policy_aware
    if not graph.policy_aware:
        return
    assert mine.policy_version == graph.policy_version
    for u, v in _directions(graph):
        slot = mine.slot_of(mine.index_of(u), mine.index_of(v))
        ref = theirs.slot_of(theirs.index_of(u), theirs.index_of(v))
        assert mine.fee_rates[slot] == theirs.fee_rates[ref]


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


@pytest.mark.parametrize("hubs", [0, 5])
@pytest.mark.parametrize("seed", range(6))
def test_slot_pass_matches_per_direction_loop(seed, hubs):
    rng = random.Random(9_000 + 31 * seed + hubs)
    controller = FeeMarketController(
        hubs=hubs,
        min_rate=rng.choice([0.0005, 0.001]),
        max_rate=rng.choice([0.05, 0.1]),
        sensitivity=rng.choice([1.0, 4.0]),
        decay=rng.choice([0.9, 0.97, 1.0]),
    )
    # ``eager`` has every record read after every tick; ``lazy``
    # only a random fifth, so most of its directions go unread
    # across several ticks, copies and churn: reads must change
    # nothing that later reads or ticks see.
    eager, lazy, reference = _build(seed), _build(seed), _build(seed)
    rebuilt = False
    for tick in range(14):
        graphs = (lazy, eager, reference)
        _add_traffic(rng, graphs, _directions(lazy))
        superseded = lazy.compact()
        kept = list(superseded.fee_rates)
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
            _assert_rates_equal(graph, reference)
        snapshot = lazy.compact()
        if snapshot.num_slots == snapshot.live_slots and tick >= 7:
            rebuilt = True
        if snapshot is not superseded:
            # The superseded snapshot keeps the rates it had.
            assert superseded.fee_rates[: len(kept)] == kept
        directions = _directions(lazy)
        _assert_records_equal(eager, reference, directions)
        if tick % 4 == 3:
            _assert_records_equal(lazy, reference, directions)
        else:
            sample = rng.sample(directions, len(directions) // 5)
            _assert_records_equal(lazy, reference, sample)
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
    _assert_rates_equal(graph, reference)
    # The zero-capacity channel keeps its legacy (free) record.
    assert graph.channel_policy(2, 3).fee_rate == 0.0


def test_no_change_leaves_a_graph_without_policies_alone():
    graph = ChannelGraph()
    graph.add_channel(1, 2, 50.0, 50.0)
    assert FeeMarketController(min_rate=0.0).update(graph, 0.0) is False
    assert not graph.policy_aware
    assert graph.compact().fee_rates is None


# ---------------------------------------------------------------- the tick


def scalar_tick(controller: FeeMarketController, graph: ChannelGraph) -> bool:
    """The per-slot loop the array operation replaced: one tick.

    Clamps each funded priced direction's idle decay with Python's
    ``min`` and ``max``, in the snapshot's slot order, then prices the
    directions with traffic, and installs the new array.
    """
    traffic = graph.traffic
    snapshot, rates = graph.fee_rates()
    low, high = controller.min_rate, controller.max_rate
    decay, sensitivity = controller.decay, controller.sensitivity
    idle = decay + sensitivity * 0.0
    new = list(rates)
    slots = {}
    for u in controller.priced_nodes(graph):
        i = snapshot.index_of(u)
        for slot, j in zip(snapshot.slot_rows[i], snapshot.neighbor_idx[i]):
            v = snapshot.nodes[j]
            slots[(u, v)] = slot
            if graph.total_capacity(u, v) > 0:
                new[slot] = min(high, max(low, rates[slot] * idle))
    for direction, volume in traffic.items():
        slot = slots.get(direction)
        if slot is None or graph.total_capacity(*direction) <= 0:
            continue
        utilization = volume / graph.total_capacity(*direction)
        new[slot] = min(
            high, max(low, rates[slot] * (decay + sensitivity * utilization))
        )
    traffic.clear()
    if new == rates:
        return False
    graph.reprice(snapshot, new)
    return True


def _hex(values) -> list[str]:
    """``values`` bit for bit; each must be a Python float."""
    values = list(values)
    assert all(type(value) is float for value in values)
    return [value.hex() for value in values]


def _funded_priced(controller, graph) -> set[tuple]:
    return {
        (u, v)
        for u in controller.priced_nodes(graph)
        for v in graph.neighbors(u)
        if graph.total_capacity(u, v) > 0
    }


@pytest.mark.parametrize("hubs", [0, 3, 7])
@pytest.mark.parametrize("seed", range(5))
def test_array_tick_matches_scalar_loop(seed, hubs):
    rng = random.Random(9_500 + 17 * seed + hubs)
    controller = FeeMarketController(
        hubs=hubs,
        min_rate=rng.choice([0.0005, 0.001]),
        max_rate=rng.choice([0.05, 0.1]),
        sensitivity=rng.choice([1.0, 4.0, 8.0]),
        decay=rng.choice([0.5, 0.9, 0.97, 1.0]),
    )
    graph, scalar = _build(seed), _build(seed)
    mixed = 0
    for tick in range(12):
        _add_traffic(rng, (graph, scalar), _directions(graph))
        if rng.random() < 0.3:
            _churn(rng, (graph, scalar), rng.randrange(1, 4))
        funded = _funded_priced(controller, graph)
        loaded = funded & set(graph.traffic)
        mixed += bool(loaded) and loaded != funded
        changed = scalar_tick(controller, scalar)
        assert controller.update(graph, float(tick)) is changed
        assert graph.traffic == {}
        assert graph.policy_version == scalar.policy_version
        assert _hex(graph.compact().fee_rates) == _hex(
            scalar.compact().fee_rates
        )
    assert mixed


@pytest.mark.parametrize("hubs", [0, 1])
def test_tick_with_no_funded_priced_direction(hubs):
    graphs = []
    for _ in range(2):
        graph = ChannelGraph()
        for leaf in (1, 2, 3):
            graph.add_channel("hub", leaf, 0.0, 0.0)
        if hubs:
            # Funded, but out of no priced node.
            graph.add_channel(1, 2, 40.0, 40.0)
        for u, v in _directions(graph):
            graph.set_channel_policy(u, v, ChannelPolicy(fee_rate=0.02))
        graph.note_traffic("hub", 1, 5.0)
        graphs.append(graph)
    graph, scalar = graphs
    controller = FeeMarketController(hubs=hubs)
    assert _funded_priced(controller, graph) == set()
    assert scalar_tick(controller, scalar) is False
    before = graph.policy_version
    assert controller.update(graph, 0.0) is False
    assert graph.traffic == {}
    assert graph.policy_version == before
    assert _hex(graph.compact().fee_rates) == _hex(scalar.compact().fee_rates)


@pytest.mark.parametrize("hubs", [0, 4])
def test_rates_on_the_floor_do_not_move(hubs):
    """Idle decay of a rate on ``min_rate`` moves nothing: no epoch."""
    graph, scalar = _build(3), _build(3)
    for each in (graph, scalar):
        for u, v in _directions(each):
            floor = replace(each.channel_policy(u, v), fee_rate=0.002)
            each.set_channel_policy(u, v, floor)
    controller = FeeMarketController(hubs=hubs, min_rate=0.002)
    before = graph.policy_version
    assert scalar_tick(controller, scalar) is False
    assert controller.update(graph, 0.0) is False
    assert graph.policy_version == before
    rates = graph.compact().fee_rates
    assert _hex(rates) == _hex(scalar.compact().fee_rates)
    assert set(rates) == {0.002}


# ------------------------------------------------------------ the hop fees


def _stored(graph: ChannelGraph, u, v):
    """``u -> v``'s record as its channel stores it."""
    return graph._lookup(u, v).fee_policy(u, v)


def _priced(record):
    return record if isinstance(record, ChannelPolicy) else DEFAULT_POLICY


def _record_rates(records) -> list[float]:
    """The rates inside ``records`` (a :class:`ZeroFee` has none)."""
    return [
        record.fee_rate if isinstance(record, ChannelPolicy) else record.rate
        for record in records
        if isinstance(record, (ChannelPolicy, LinearFee))
    ]


def _walks(rng, graph: ChannelGraph, count: int) -> list[list]:
    """Random walks of one to five hops over ``graph``'s channels."""
    adjacency = graph.adjacency()
    starts = [node for node, row in adjacency.items() if row]
    walks = []
    for _ in range(count):
        walk = [rng.choice(starts)]
        for _ in range(rng.randrange(1, 6)):
            walk.append(rng.choice(adjacency[walk[-1]]))
        walks.append(walk)
    return walks


def _reopen(rng, graphs) -> None:
    """Close one channel and open it again, with a new record one way."""
    first = graphs[0]
    channel = rng.choice(list(first.channels()))
    a, b = channel.a, channel.b
    balances = (first.balance(a, b), first.balance(b, a))
    policy = _random_policy(rng)
    for graph in graphs:
        graph.remove_channel(a, b)
        graph.add_channel(a, b, *balances, fee_ab=policy)


def _assert_reads_match_records(rng, graph, reference) -> None:
    """Every fee ``graph`` reads, against ``reference``'s stored records."""
    directions = _directions(graph)
    stored = [_stored(reference, u, v) for u, v in directions]
    read = [graph.fee_policy(u, v) for u, v in directions]
    assert read == stored
    assert _hex(_record_rates(read)) == _hex(_record_rates(stored))
    assert [graph.channel_policy(u, v) for u, v in directions] == [
        _priced(record) for record in stored
    ]
    for path in _walks(rng, graph, 12):
        hops = list(zip(path, path[1:]))
        records = [_stored(reference, u, v) for u, v in hops]
        policies = [_priced(record) for record in records]
        amount = rng.choice([0.0, 1e-3, rng.uniform(0.5, 300.0), 1e6])
        amounts = graph.path_hop_amounts(path, amount)
        assert _hex(amounts) == _hex(hop_amounts(policies, amount))
        fee = graph.path_fee(path, amount)
        assert _hex([fee]) == _hex([amounts[0] - amount])
        breakdown = graph.path_fee_breakdown(path, amount)
        expected = fee_breakdown(path, policies, amount)
        assert list(breakdown) == list(expected)
        assert _hex(breakdown.values()) == _hex(expected.values())
        fees = graph.probe_readings(path)[2]
        assert fees == tuple(records)
        assert _hex(_record_rates(fees)) == _hex(_record_rates(records))


def _assert_closed_hops_raise(rng, graph) -> None:
    """A path raises :class:`NoChannelError` at its first closed hop."""
    path = _walks(rng, graph, 1)[0]
    for i in range(len(path) - 1):
        u = path[i]
        strangers = [
            node for node in graph.nodes
            if node != u and not graph.has_channel(u, node)
        ]
        x = rng.choice(strangers) if strangers else "gone"
        broken = path[: i + 1] + [x] + path[i + 2:]
        for read in (
            graph.path_hop_amounts, graph.path_fee, graph.path_fee_breakdown
        ):
            with pytest.raises(NoChannelError) as caught:
                read(broken, 10.0)
            assert (caught.value.src, caught.value.dst) == (u, x)


@pytest.mark.parametrize("hubs", [0, 4])
@pytest.mark.parametrize("seed", range(6))
def test_hop_fees_read_the_records_rates(seed, hubs):
    """Hop fees priced off the array equal the records' recursion.

    ``reference`` never compacts, so it holds every rate in its records,
    written by :func:`reference_update`.  Between a tick and the reads,
    ``graph`` opens, closes and reopens channels, sometimes compacting
    in between: the reads then meet channels its snapshot has no slot
    for, or a closed channel's slot.
    """
    rng = random.Random(9_700 + 13 * seed + hubs)
    controller = FeeMarketController(
        hubs=hubs,
        decay=rng.choice([0.9, 0.97]),
        sensitivity=rng.choice([1.0, 4.0]),
    )
    graph, reference = _build(seed), _build(seed)
    pending = rebuilt = 0
    for tick in range(14):
        graphs = (graph, reference)
        _add_traffic(rng, graphs, _directions(graph))
        step = rng.random()
        if step < 0.15:
            graph, reference = (each.copy() for each in graphs)
        elif step < 0.3:
            a, b = rng.choice(_directions(graph))
            policy = _random_policy(rng)
            for each in graphs:
                each.set_channel_policy(a, b, policy)
        if tick == 7:
            # Past the compaction threshold: the tick's compact()
            # renumbers every slot.
            _churn(rng, (graph, reference), 80)
        if tick == 11:
            for each in (graph, reference):
                assign_uniform_fees(each, base=0.1, rate=0.01)
        changed = reference_update(controller, reference)
        assert controller.update(graph, float(tick)) == changed
        snapshot = graph.compact()
        rebuilt += snapshot.num_slots == snapshot.live_slots and tick >= 7
        step = rng.random()
        if step < 0.4:
            _churn(rng, (graph, reference), rng.randrange(1, 5))
            if rng.random() < 0.5:
                graph.compact()
        if step > 0.2:
            _reopen(rng, (graph, reference))
        pending += bool(graph._pending_deltas)
        _assert_reads_match_records(rng, graph, reference)
        _assert_closed_hops_raise(rng, graph)
    assert rebuilt and pending
