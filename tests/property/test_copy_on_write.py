"""Differential fuzz: copy-on-write graph copies against deep copies.

:meth:`ChannelGraph.copy` shares the source's :class:`Channel` objects
with the clone, and a graph swaps in a private twin of a channel the
first time it writes it.  Copies of an unchanged source also share the
row dicts its first copy walked, and a graph copies a row the first
time it writes it.  The reference below is the copy that sharing
replaced: it walks the source and builds every channel of the clone
anew.

Each program runs two worlds side by side from one seed.  In one, graphs
are made with ``copy()``; in the other, with :func:`deep_copy`.  Both
make 3-5 graphs at random points, from the source or from a clone, and
some copies are taken while holds are outstanding.  Every step is then
applied to the same graph in both worlds: holds, settles, releases,
``execute`` (some of them rejected), ``set_channel_policy``, fee-market
ticks followed by reads of repriced records, channel opens and closes,
and ``scale_balances``.  After every step each graph must equal its
reference in adjacency order, ``topology_version``, per-direction
``balance``, ``held`` and ``channel_policy``, and in the node and
neighbor order of ``compact()``; no channel object and no row dict may
be writable by two graphs; and rows kept for later copies never change.
A second program takes runs of 2-4 copies of one graph, with a write,
a channel open or close, or an outstanding hold between some of them.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import InsufficientBalanceError
from repro.network.channel import Channel
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.fees import ChannelPolicy, LinearFee
from repro.network.graph import ChannelGraph, _SiblingSnapshot


def deep_copy(graph: ChannelGraph) -> ChannelGraph:
    """The copy that sharing replaced: every channel built anew.

    Channels are copied node-major, with their deposits and the fee
    records the source reads (live rates included) but no holds, and the
    clone owns each of them.
    """
    clone = ChannelGraph()
    adjacency = clone._adj = {node: {} for node in graph._adj}
    channels = 0
    for u, nbrs in graph._adj.items():
        row = adjacency[u]
        for v, channel in nbrs.items():
            if v in row:  # copied from v's side already
                continue
            twin = Channel(
                channel.a,
                channel.b,
                channel.balance_ab,
                channel.balance_ba,
                fee_ab=graph.fee_policy(channel.a, channel.b),
                fee_ba=graph.fee_policy(channel.b, channel.a),
            )
            twin._owner = clone._owner
            row[v] = twin
            adjacency[v][u] = twin
            channels += 1
    clone._topology_version = len(adjacency) + channels
    if graph._copies is None:
        graph._copies = _SiblingSnapshot()
    clone._siblings = graph._copies
    clone._policy_version = graph._policy_version
    clone.fee_controller = graph.fee_controller
    return clone


def _node_ids(n: int) -> list:
    """Mixed int and str ids, so no sort order over nodes can be assumed."""
    return [i if i % 3 else f"n{i}" for i in range(n)]


def _random_policy(rng: random.Random) -> ChannelPolicy:
    return ChannelPolicy(
        base_fee=rng.choice([0.0, 0.1]),
        fee_rate=rng.choice([0.0, 0.002, rng.uniform(0.0005, 0.05)]),
        htlc_max=rng.choice([float("inf"), 200.0]),
    )


def _build(seed: int, market: bool) -> ChannelGraph:
    """A source graph: a spanning tree, chords, one unfunded channel."""
    rng = random.Random(seed)
    nodes = _node_ids(rng.randrange(10, 18))
    graph = ChannelGraph()
    for node in nodes:
        graph.add_node(node)
    for i, a in enumerate(nodes[1:], start=1):
        b = nodes[rng.randrange(i)]
        graph.add_channel(a, b, rng.uniform(20, 120), rng.uniform(0, 120))
    for _ in range(len(nodes)):
        a, b = rng.sample(nodes, 2)
        if not graph.has_channel(a, b):
            fee = rng.choice([None, LinearFee(base=0.2, rate=0.01)])
            graph.add_channel(
                a, b, rng.uniform(20, 120), rng.uniform(20, 120),
                fee_ab=fee, fee_ba=fee,
            )
    a, b = rng.sample(nodes, 2)
    if not graph.has_channel(a, b):
        graph.add_channel(a, b, 0.0, 0.0)
    if market:
        assign_market_policies(graph, rng, paper_mix=True)
    return graph


def _directions(graph: ChannelGraph) -> list[tuple]:
    return [(u, v) for u, row in graph.adjacency().items() for v in row]


def _walk(rng: random.Random, graph: ChannelGraph) -> list | None:
    """A random simple path of 1-4 hops, or None."""
    path = [rng.choice(graph.nodes)]
    for _ in range(rng.randrange(1, 5)):
        options = [v for v in graph.neighbors(path[-1]) if v not in path]
        if not options:
            break
        path.append(rng.choice(options))
    return path if len(path) > 1 else None


def _assert_same(graph: ChannelGraph, reference: ChannelGraph) -> None:
    adjacency = graph.adjacency()
    assert list(adjacency.items()) == list(reference.adjacency().items())
    assert graph.topology_version == reference.topology_version
    for u, v in _directions(graph):
        assert graph.balance(u, v) == reference.balance(u, v)
        assert graph.held(u, v) == reference.held(u, v)
        assert graph.channel_policy(u, v) == reference.channel_policy(u, v)
    mine, theirs = graph.compact(), reference.compact()
    assert list(mine.nodes) == list(theirs.nodes)
    assert [mine[node] for node in mine.nodes] == [
        theirs[node] for node in theirs.nodes
    ]


def _row_ids(rows: dict) -> list:
    """Each row's node and its channels' identities, in order."""
    return [
        (u, [(v, id(channel)) for v, channel in row.items()])
        for u, row in rows.items()
    ]


def _assert_single_writer(graphs: list[ChannelGraph], kept: dict) -> None:
    """No channel and no row can be written by two graphs.

    Every channel in a graph's rows is its own or shared (retired).  A
    row dict that two graphs reach, or that is kept for later copies,
    is private to neither.  Kept rows never change: ``kept`` maps every
    set of rows a source ever kept for its copies to its items when
    first seen.
    """
    for graph in graphs:
        copies = graph._copies
        if copies is not None and copies.rows is not None:
            kept.setdefault(
                id(copies.rows), (copies.rows, _row_ids(copies.rows))
            )
    holders: dict[int, int] = {}
    for rows, items in kept.values():
        assert _row_ids(rows) == items
        for row in rows.values():
            holders[id(row)] = 2
    for graph in graphs:
        for row in graph._adj.values():
            holders[id(row)] = holders.get(id(row), 0) + 1
    writers: dict[int, int] = {}
    for index, graph in enumerate(graphs):
        private = graph._private
        for u, row in graph._adj.items():
            if holders[id(row)] > 1:
                assert private is not None and u not in private
            for v, channel in row.items():
                assert graph._adj[v][u] is channel
                if channel._owner.live:
                    assert channel._owner is graph._owner
                    assert writers.setdefault(id(channel), index) == index
                else:
                    assert channel._owner is not graph._owner


class _World:
    """One world's graphs and the holds each has outstanding."""

    def __init__(self, source: ChannelGraph, copier) -> None:
        self.graphs = [source]
        self.holds: list[list[tuple]] = [[]]
        self.copier = copier

    def copy(self, index: int) -> None:
        self.graphs.append(self.copier(self.graphs[index]))
        self.holds.append([])


#: Step kinds and their weights; the fee steps run only in priced programs.
_STEPS = {
    "hold": 20,
    "settle": 15,
    "execute": 20,
    "policy": 10,
    "tick": 15,
    "open": 7,
    "close": 8,
    "scale": 5,
}


@pytest.mark.parametrize("seed", range(12))
def test_copies_match_deep_copies(seed):
    rng = random.Random(40_000 + seed)
    # A third of the programs never price a channel: their graphs stay
    # policy-free throughout, the rest start from a priced market.
    priced = seed % 3 != 0
    cow = _World(_build(seed, market=priced), ChannelGraph.copy)
    ref = _World(_build(seed, market=priced), deep_copy)
    controller = FeeMarketController(
        hubs=rng.choice([0, 4]), decay=rng.choice([0.9, 1.0])
    )
    kinds = [
        kind for kind in _STEPS if priced or kind not in ("policy", "tick")
    ]
    weights = [_STEPS[kind] for kind in kinds]
    copies = rng.randrange(3, 6)
    steps = 70
    copy_at = sorted(rng.sample(range(1, steps), copies))
    kept: dict = {}
    for step in range(steps):
        index = rng.randrange(len(cow.graphs))
        if step in copy_at:
            cow.copy(index)
            ref.copy(index)
        else:
            kind = rng.choices(kinds, weights)[0]
            _apply(rng, kind, cow, ref, index, controller, float(step))
        _check(cow, ref, kept)
    assert len(cow.graphs) == copies + 1
    assert all(graph.policy_aware == priced for graph in cow.graphs)


@pytest.mark.parametrize("seed", range(12))
def test_copy_runs_match_deep_copies(seed):
    """Runs of 2-4 copies of one graph, some with a change in between.

    Consecutive copies of an unchanged graph start from the rows its
    first copy walked.  Between two copies of a run the source may be
    written (a payment or a rescale, in priced programs a policy or a
    fee tick), gain or lose a channel, or place a hold that stays
    outstanding; each of these must make the next copy walk again.
    """
    rng = random.Random(60_000 + seed)
    priced = seed % 3 != 0
    cow = _World(_build(seed, market=priced), ChannelGraph.copy)
    ref = _World(_build(seed, market=priced), deep_copy)
    controller = FeeMarketController(
        hubs=rng.choice([0, 4]), decay=rng.choice([0.9, 1.0])
    )
    kinds = [
        kind for kind in _STEPS if priced or kind not in ("policy", "tick")
    ]
    weights = [_STEPS[kind] for kind in kinds]
    # What may happen to the source between two copies of a run.
    between = ["execute", "scale", "open", "close", "hold"]
    if priced:
        between += ["policy", "tick"]
    steps = 40
    run_at = rng.sample(range(1, steps), 3)
    kept: dict = {}
    for step in range(steps):
        index = rng.randrange(len(cow.graphs))
        if step not in run_at:
            kind = rng.choices(kinds, weights)[0]
            _apply(rng, kind, cow, ref, index, controller, float(step))
            _check(cow, ref, kept)
            continue
        if step == min(run_at) or rng.random() < 0.5:
            # Start this run with no escrow out, so its copies share.
            while cow.holds[index]:
                _apply(rng, "settle", cow, ref, index, controller, 0.0)
        for count in range(rng.randrange(2, 5)):
            kind = rng.choice([None, None, *between]) if count else None
            if kind is not None:
                _apply(rng, kind, cow, ref, index, controller, float(step))
            cow.copy(index)
            ref.copy(index)
            _check(cow, ref, kept)
    assert kept


def _check(cow: _World, ref: _World, kept: dict) -> None:
    for graph, reference in zip(cow.graphs, ref.graphs):
        _assert_same(graph, reference)
    _assert_single_writer(cow.graphs, kept)


def _apply(rng, kind, cow, ref, index, controller, now) -> None:
    """One random step of ``kind`` on graph ``index`` of both worlds."""
    graph, reference = cow.graphs[index], ref.graphs[index]
    holds, ref_holds = cow.holds[index], ref.holds[index]
    directions = _directions(graph)
    if kind == "hold":
        u, v = rng.choice(directions)
        amount = graph.balance(u, v) * rng.choice([0.1, 0.5, 1.0])
        if amount > 0:
            graph.hold(u, v, amount)
            reference.hold(u, v, amount)
            holds.append((u, v, amount))
            ref_holds.append((u, v, amount))
    elif kind == "settle":
        if holds:
            pick = rng.randrange(len(holds))
            u, v, amount = holds.pop(pick)
            ref_holds.pop(pick)
            if rng.random() < 0.5:
                graph.settle_hold(u, v, amount)
                reference.settle_hold(u, v, amount)
            else:
                graph.release_hold(u, v, amount)
                reference.release_hold(u, v, amount)
    elif kind == "execute":
        path = _walk(rng, graph)
        if path is not None:
            bottleneck = graph.path_bottleneck(path)
            # Some payments exceed the path's balance and are rejected.
            amount = bottleneck * rng.choice([0.2, 0.7, 1.5]) + 1.0
            outcomes = []
            for each in (graph, reference):
                try:
                    each.execute_single(path, amount)
                    outcomes.append(True)
                except InsufficientBalanceError:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1]
    elif kind == "policy":
        u, v = rng.choice(directions)
        policy = _random_policy(rng)
        graph.set_channel_policy(u, v, policy)
        reference.set_channel_policy(u, v, policy)
    elif kind == "tick":
        assert controller.update(graph, now) == controller.update(
            reference, now
        )
        for u, v in rng.sample(directions, len(directions) // 3):
            assert graph.channel_policy(u, v) == reference.channel_policy(u, v)
    elif kind == "open":
        a, b = rng.sample(graph.nodes, 2)
        if not graph.has_channel(a, b):
            balances = (rng.uniform(5, 60), rng.uniform(0, 60))
            graph.add_channel(a, b, *balances)
            reference.add_channel(a, b, *balances)
    elif kind == "close":
        busy = {frozenset((u, v)) for u, v, _ in holds}
        idle = [(u, v) for u, v in directions if frozenset((u, v)) not in busy]
        if idle:
            a, b = rng.choice(idle)
            graph.remove_channel(a, b)
            reference.remove_channel(a, b)
    else:
        # Holds are not scaled: only grow balances while any are out.
        factor = rng.choice([1.25, 3.0] if holds else [0.5, 1.25, 3.0])
        graph.scale_balances(factor)
        reference.scale_balances(factor)


class TestSharedRows:
    """What consecutive copies of one graph share, and what ends it."""

    @staticmethod
    def _source() -> ChannelGraph:
        return _build(3, market=False)

    def test_siblings_share_every_row(self):
        source = self._source()
        first, second = source.copy(), source.copy()
        assert first._adj is not second._adj
        rows = source._copies.rows
        for node in source.nodes:
            assert first._adj[node] is second._adj[node] is rows[node]
        assert first._private == second._private == set()
        assert source._private is None

    def test_a_write_copies_only_its_rows(self):
        source = self._source()
        first, second = source.copy(), source.copy()
        a, b = _directions(first)[0]
        before = dict(second._adj[a])
        first.hold(a, b, first.balance(a, b) / 2)
        assert first._private == {a, b}
        assert first._adj[a] is not second._adj[a]
        assert second._adj[a] == before
        assert first._adj[a][b] is not second._adj[a][b]
        assert second.held(a, b) == 0.0

    def test_source_write_ends_sharing(self):
        source = self._source()
        first = source.copy()
        a, b = _directions(source)[0]
        source.execute_single([a, b], source.balance(a, b) / 4)
        assert source._copies.rows is None
        second = source.copy()
        assert second._adj[a] is not first._adj[a]
        assert second._adj[a][b] is source._adj[a][b]
        assert second.balance(a, b) == source.balance(a, b)

    def test_held_walk_shares_nothing(self):
        source = self._source()
        a, b = _directions(source)[0]
        source.hold(a, b, source.balance(a, b) / 2)
        held = source.copy()
        assert source._copies.rows is None
        assert held._private is None
        assert held._adj[a][b]._owner is held._owner
        later = source.copy()
        assert later._adj[a][b] is not held._adj[a][b]
        assert later.held(a, b) == held.held(a, b) == 0.0

    def test_structural_change_ends_sharing(self):
        source = self._source()
        first = source.copy()
        a, b = next(
            (u, v)
            for u in source.nodes
            for v in source.nodes
            if u != v and not source.has_channel(u, v)
        )
        source.add_channel(a, b, 10.0, 10.0)
        assert source._copies is None
        second = source.copy()
        assert second.has_channel(a, b) and not first.has_channel(a, b)
        assert all(
            second._adj[node] is not first._adj[node] for node in first.nodes
        )

    def test_open_and_close_on_a_sibling(self):
        source = self._source()
        first, second = source.copy(), source.copy()
        a, b = _directions(first)[0]
        first.remove_channel(a, b)
        assert not first.has_channel(a, b) and second.has_channel(a, b)
        assert first._private == {a, b}
        first.add_node("new")
        first.add_channel("new", a, 5.0, 5.0)
        assert "new" in first._private and not second.has_node("new")
        assert source._copies.rows[a] is second._adj[a]
