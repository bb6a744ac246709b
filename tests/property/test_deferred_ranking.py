"""Deferred re-ranking against immediate re-ranking, step by step.

:meth:`RoutingTable.refresh` and :meth:`RoutingTable.apply_events` read a
stale entry's first path off the sender's BFS layer at batch time and
defer the Yen run that ranks the rest until the entry's ``paths`` or
``yen_cursor`` is first read.  At the next batch a still-deferred entry
either runs it (when it survives, or when the closed-channel check reads
its paths) or has it replaced (when it is re-ranked again).
:class:`ImmediateTable` (``tests/table_reference.py``) keeps the earlier
code, which ran every Yen at once.  Three tables go through the same
seeded histories:

* the reference;
* ``read``, whose entries are read through ``paths`` and ``yen_cursor``
  after every step, which runs each deferred ranking right after its
  batch;
* ``lazy``, whose entries are compared without running a deferred
  ranking, so deferrals live on into later batches, lookups and
  replacements.

A history mixes batches of opens, batches of closes of existing channels
(some on cached paths, some elsewhere, so layers survive and the
closed-channel check reads deferred entries), lookups with repeats,
``replace_path`` calls and the odd ``refresh``.  After every step every
entry's ``paths`` and ``yen_cursor``, the order of the ``_source_layers``
keys and every return value must be equal.  After every batch each
deferred entry must refer to that batch's snapshot.  One graph is below
``CompactTopology.VECTOR_SWEEP_MIN_NODES`` and one above, so both tree
kernels build the layers.  Everything is seeded stdlib :mod:`random`.
"""

from __future__ import annotations

import random

import pytest
from table_reference import ImmediateTable

from repro.core.routing_table import RoutingTable, TableEntry
from repro.network.compact import CompactTopology
from repro.network.dynamics import ChannelEvent, ChannelEventType
from repro.network.graph import ChannelGraph
from repro.network.paths import yen_k_shortest_paths
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)

SIZES = (300, 2_100)
SEEDS = (0, 1, 2)
STEPS = 90


def test_sizes_straddle_the_vector_threshold():
    assert SIZES[0] < CompactTopology.VECTOR_SWEEP_MIN_NODES <= SIZES[1]


def _graph(rng: random.Random, n_nodes: int) -> ChannelGraph:
    edges = barabasi_albert_edges(n_nodes, 2, rng)
    graph = build_channel_graph(edges, uniform_sampler(50.0, 150.0), rng)
    graph.add_channel("island-a", "island-b", 10.0, 10.0)
    return graph


def _peek(entry: TableEntry) -> tuple[list, int]:
    """What reading ``entry`` would give, without running a deferral."""
    deferred = entry._deferred
    if deferred is None:
        return entry._paths, entry._yen_cursor
    paths = yen_k_shortest_paths(
        deferred.topology,
        deferred.sender,
        deferred.receiver,
        deferred.k,
        first=deferred.first,
    )
    return paths, len(paths)


def _assert_same(reference, read, lazy, step) -> None:
    assert list(read._entries) == list(reference._entries), step
    assert list(lazy._entries) == list(reference._entries), step
    assert list(read._source_layers) == list(reference._source_layers), step
    assert list(lazy._source_layers) == list(reference._source_layers), step
    for pair, expected in reference._entries.items():
        want = (expected.paths, expected.yen_cursor)
        assert _peek(lazy._entries[pair]) == want, (step, pair)
        entry = read._entries[pair]
        assert (entry.paths, entry.yen_cursor) == want, (step, pair)


def _cached_channels(table: RoutingTable) -> list[tuple]:
    """Channels on the reference's cached paths, in entry order."""
    hops = {}
    for entry in table._entries.values():
        for path in entry.paths:
            hops.update(dict.fromkeys(zip(path, path[1:])))
    return list(hops)


def _batch(rng, graph, reference) -> list[ChannelEvent]:
    """Apply a batch of opens, closes, or both, to ``graph``."""
    kind = rng.choice(("open", "close", "close", "mixed"))
    events = []
    for _ in range(rng.randrange(1, 5)):
        close = kind == "close" or (kind == "mixed" and rng.random() < 0.5)
        if close:
            cached = _cached_channels(reference)
            if cached and rng.random() < 0.5:
                a, b = rng.choice(cached)
            else:
                channel = rng.choice(list(graph.channels()))
                a, b = channel.a, channel.b
            if not graph.has_channel(a, b):
                continue
            graph.remove_channel(a, b)
            events.append(ChannelEvent(0.0, ChannelEventType.CLOSE, a, b))
        else:
            a = rng.choice(graph.nodes)
            b = f"new-{len(graph.nodes)}" if rng.random() < 0.1 else (
                rng.choice(graph.nodes)
            )
            if a == b or graph.has_channel(a, b):
                continue
            graph.add_channel(a, b, 10.0, 10.0)
            events.append(
                ChannelEvent(0.0, ChannelEventType.OPEN, a, b, 10.0, 10.0)
            )
    return events


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_nodes", SIZES)
def test_deferred_ranking_matches_immediate(n_nodes, seed):
    rng = random.Random(1_000 * n_nodes + seed)
    graph = _graph(rng, n_nodes)
    topology = graph.compact()
    m = rng.choice((1, 2, 3))
    reference, read, lazy = tables = (
        ImmediateTable(m=m),
        RoutingTable(m=m),
        RoutingTable(m=m),
    )
    if seed % 2:
        # Evict (and later rebuild) BFS layers, re-stamped ones included.
        for table in tables:
            table.MAX_SOURCE_LAYERS = 3
    nodes = graph.nodes
    senders = rng.sample(nodes, 6)
    pairs = [(rng.choice(senders), rng.choice(nodes)) for _ in range(24)]
    pairs += [(senders[0], "island-a"), (senders[0], senders[0])]
    seen = set()

    for step in range(STEPS):
        roll = rng.random()
        if roll < 0.35 or not reference._entries:
            sender, receiver = rng.choice(pairs)
            want = reference.lookup(sender, receiver, topology)
            for table in (read, lazy):
                got = table.lookup(sender, receiver, topology)
                assert got.paths == want.paths, step
                assert (got.hits, got.misses) == (want.hits, want.misses)
            seen.add("lookup")
        elif roll < 0.5:
            pair = rng.choice(list(reference._entries))
            paths = reference._entries[pair].paths
            if paths and rng.random() < 0.9:
                dead = list(rng.choice(paths))
            else:
                dead = [pair[0], "nowhere", pair[1]]
            want = reference.replace_path(*pair, dead, topology)
            for table in (read, lazy):
                assert table.replace_path(*pair, dead, topology) == want, step
            seen.add("replace")
        elif roll < 0.54:
            topology = graph.compact()
            for table in tables:
                table.refresh(topology)
            seen.add("refresh")
        else:
            events = _batch(rng, graph, reference)
            topology = graph.compact()
            waiting = {
                pair
                for pair, entry in lazy._entries.items()
                if entry._deferred is not None
            }
            want = reference.apply_events(events, topology)
            assert read.apply_events(events, topology) == want, step
            assert lazy.apply_events(events, topology) == want, step
            for table in (read, lazy):
                for entry in table._entries.values():
                    if entry._deferred is not None:
                        assert entry._deferred.topology is topology, step
            closes = any(e.kind is ChannelEventType.CLOSE for e in events)
            for pair in waiting:
                deferred = lazy._entries[pair]._deferred
                if deferred is None:
                    seen.add("ran in a close batch" if closes else "ran")
                else:
                    seen.add("replaced")
        _assert_same(reference, read, lazy, step)

    assert seen >= {
        "lookup",
        "replace",
        "ran in a close batch",
        "replaced",
    }, seen


def test_refresh_defers_every_entry_and_keeps_layer_order():
    graph = build_channel_graph(
        barabasi_albert_edges(40, 2, random.Random(3)),
        uniform_sampler(50.0, 150.0),
        random.Random(3),
    )
    before = graph.compact()
    reference, table = ImmediateTable(m=3), RoutingTable(m=3)
    pairs = [(0, 9), (5, 30), (0, 17), (12, 3), (5, 0)]
    for each in (reference, table):
        for pair in pairs:
            each.lookup(*pair, before)
    graph.add_channel(0, 39, 10.0, 10.0)
    after = graph.compact()
    reference.refresh(after)
    table.refresh(after)
    assert list(table._source_layers) == list(reference._source_layers)
    entries = table._entries
    assert all(entries[pair]._deferred.topology is after for pair in pairs)
    for pair in pairs:
        expected = reference._entries[pair]
        assert entries[pair].paths == expected.paths
        assert entries[pair]._deferred is None
        assert entries[pair].yen_cursor == expected.yen_cursor


def test_unreachable_receiver_is_not_deferred():
    graph = ChannelGraph()
    graph.add_channel(0, 1, 10.0, 10.0)
    graph.add_channel(2, 3, 10.0, 10.0)
    table = RoutingTable(m=2)
    table.lookup(0, 1, graph.compact())
    table.lookup(0, 3, graph.compact())
    graph.remove_channel(2, 3)
    events = [ChannelEvent(0.0, ChannelEventType.CLOSE, 2, 3)]
    assert table.apply_events(events, graph.compact()) == (0, 0)
    table.refresh(graph.compact())
    assert table._entries[(0, 1)]._deferred is not None
    assert table._entries[(0, 3)]._deferred is None
    assert table._entries[(0, 3)].paths == []


def test_writing_a_deferred_entry_ranks_it_first():
    graph = build_channel_graph(
        barabasi_albert_edges(30, 2, random.Random(5)),
        uniform_sampler(50.0, 150.0),
        random.Random(5),
    )
    topology = graph.compact()
    reference, table = ImmediateTable(m=3), RoutingTable(m=3)
    for each in (reference, table):
        each.lookup(0, 20, topology)
        each.refresh(topology)
    entry = table._entries[(0, 20)]
    entry.paths = [[0, 20]]
    assert entry.yen_cursor == reference._entries[(0, 20)].yen_cursor
    table.refresh(topology)
    entry.yen_cursor = 9
    assert entry.paths == reference._entries[(0, 20)].paths
    assert entry.yen_cursor == 9
