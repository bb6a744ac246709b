"""Resumed Yen enumerations against from-scratch runs, at two levels.

**Kernel.**  A :class:`~repro.network.paths.YenState` resumed through any
sequence of ``k`` — rising one at a time, or jumping up and down — must
return exactly what a from-scratch ``yen_k_shortest_paths(..., k)``
returns.  Graphs have degree ties, mixed int/str node ids, a second
component and isolated nodes (unreachable pairs), a dangling neighbor,
and ``first`` hints that pick a non-default fewest-hop path.  Inputs are
mappings and :class:`CompactTopology` snapshots, with and without
``edge_ok``.  A state reused with another target, topology object or
``edge_ok`` must start over.

**Table.**  A :class:`RoutingTable` and a reference that keeps the
from-scratch ``replace_path`` are driven through the same random steps:
lookups, replacements (of cached paths, of paths no entry holds, and on
exhausted pairs), ``refresh``, and ``apply_events`` batches of opens and
closes on a :class:`ChannelGraph`.  After every step the return values,
every entry's ``paths`` and ``yen_cursor`` must match.  A small
``MAX_SOURCE_LAYERS`` makes re-stamped BFS layers get evicted and
rebuilt, so a rebuilt layer can offer another first path.

Everything is seeded stdlib :mod:`random` and runs under both kernel
backends, so a failure replays from its seed.
"""

from __future__ import annotations

import random

import pytest

from repro.core.routing_table import RoutingTable, TableEntry
from repro.network.compact import (
    CompactTopology,
    get_default_backend,
    numpy_available,
    set_default_backend,
)
from repro.network.dynamics import ChannelEvent, ChannelEventType
from repro.network.graph import ChannelGraph
from repro.network.paths import YenState, yen_k_shortest_paths
from repro.network.topology import barabasi_albert_edges

#: Largest ``k`` asked of the kernel; the small graphs have fewer simple
#: paths than this for many pairs, so exhaustion is exercised too.
K = 12


@pytest.fixture(autouse=True, params=("python", "numpy"))
def kernel_backend(request):
    """Run every case under both kernel backends."""
    if request.param == "numpy" and not numpy_available():
        pytest.skip("numpy is not installed")
    previous = get_default_backend()
    set_default_backend(request.param)
    yield request.param
    set_default_backend(previous)


# ------------------------------------------------------------------ kernel


def _node_id(i: int):
    """Mixed id types: ``repr`` order differs from numeric order."""
    return i if i % 3 else f"n{i}"


def _random_adjacency(rng: random.Random, n_nodes: int) -> dict:
    """Symmetric BA core plus a detached pair, a lone node and a dangler.

    Neighbor lists are shuffled, so BFS discovery order (and with it the
    default first path) is not the id order.
    """
    adjacency: dict = {}
    for u, v in barabasi_albert_edges(n_nodes, 2, rng):
        a, b = _node_id(u), _node_id(v)
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    adjacency["island-a"] = ["island-b"]
    adjacency["island-b"] = ["island-a"]
    adjacency["lone"] = []
    # A neighbor that is not a key: reachable as a value only.
    adjacency[_node_id(1)].append("dangling")
    for neighbors in adjacency.values():
        rng.shuffle(neighbors)
    return adjacency


def _edge_filter(rng: random.Random, adjacency: dict):
    """A fixed predicate that bans about a tenth of the directed edges."""
    banned = {
        (u, v)
        for u, neighbors in adjacency.items()
        for v in neighbors
        if rng.random() < 0.1
    }
    return lambda u, v: (u, v) not in banned


def _tie_hint(rng, topology, source, target, edge_ok):
    """A fewest-hop path that is not necessarily Yen's default first one."""
    ranked = yen_k_shortest_paths(topology, source, target, K, edge_ok)
    if not ranked:
        return None
    ties = [path for path in ranked if len(path) == len(ranked[0])]
    return rng.choice(ties)


def _pairs(rng: random.Random, adjacency: dict, count: int) -> list:
    nodes = list(adjacency) + ["dangling", "missing"]
    core = [
        node
        for node in adjacency
        if not str(node).startswith(("island", "lone"))
    ]
    pairs = [tuple(rng.sample(core, 2)) for _ in range(count)]
    # Unreachable or unknown endpoints, and a source equal to the target.
    pairs += [
        (core[0], "island-a"),
        (core[0], "lone"),
        (core[0], "dangling"),
        ("missing", core[0]),
        (core[0], core[0]),
    ]
    pairs.append(tuple(rng.sample(nodes, 2)))
    return pairs


def _cases(seed: int):
    """(topology, source, target, edge_ok, first) tuples for one seed."""
    rng = random.Random(seed)
    adjacency = _random_adjacency(rng, rng.choice((9, 14, 20)))
    forms = (adjacency, CompactTopology.from_adjacency(adjacency))
    edge_ok = _edge_filter(rng, adjacency)
    for source, target in _pairs(rng, adjacency, 4):
        for topology in forms:
            for predicate in (None, edge_ok):
                hint = None
                if rng.random() < 0.5:
                    hint = _tie_hint(rng, topology, source, target, predicate)
                yield topology, source, target, predicate, hint


@pytest.mark.parametrize("seed", range(6))
def test_rising_k_matches_from_scratch(seed):
    for topology, source, target, edge_ok, first in _cases(seed):
        state = YenState()
        for k in range(1, K + 1):
            expected = yen_k_shortest_paths(
                topology, source, target, k, edge_ok, first
            )
            resumed = yen_k_shortest_paths(
                topology, source, target, k, edge_ok, first, state=state
            )
            assert resumed == expected, (source, target, k)


@pytest.mark.parametrize("seed", range(6))
def test_non_monotone_k_matches_from_scratch(seed):
    rng = random.Random(1000 + seed)
    for topology, source, target, edge_ok, first in _cases(seed):
        state = YenState()
        sequence = [rng.randint(0, K) for _ in range(8)] + [K, 1, K + 3, 2]
        for k in sequence:
            expected = yen_k_shortest_paths(
                topology, source, target, k, edge_ok, first
            )
            resumed = yen_k_shortest_paths(
                topology, source, target, k, edge_ok, first, state=state
            )
            assert resumed == expected, (source, target, sequence, k)


def test_above_bidirectional_threshold():
    # The spur searches run the bidirectional kernels at this size.
    rng = random.Random(7)
    size = CompactTopology.BIDIRECTIONAL_MIN_NODES + 22
    adjacency = _random_adjacency(rng, size)
    compact = CompactTopology.from_adjacency(adjacency)
    core = list(adjacency)[:size]
    for source, target in (tuple(rng.sample(core, 2)) for _ in range(6)):
        state = YenState()
        for k in (2, 1, 5, 8, 3, 8):
            assert yen_k_shortest_paths(
                compact, source, target, k, state=state
            ) == yen_k_shortest_paths(compact, source, target, k)


@pytest.mark.parametrize("seed", range(4))
def test_other_inputs_start_over(seed):
    rng = random.Random(seed)
    adjacency = _random_adjacency(rng, 14)
    compact = CompactTopology.from_adjacency(adjacency)
    source, target, other = rng.sample(list(adjacency)[:14], 3)
    # Same content, another object; and one channel fewer.
    twin = {node: list(neighbors) for node, neighbors in adjacency.items()}
    first_hop = yen_k_shortest_paths(adjacency, source, target, 1)[0][1]
    cut = {node: list(neighbors) for node, neighbors in adjacency.items()}
    cut[source].remove(first_hop)
    cut[first_hop].remove(source)
    edge_ok = _edge_filter(rng, adjacency)

    calls = [
        (adjacency, source, other, None),
        (adjacency, other, target, None),
        (compact, source, target, None),
        (twin, source, target, None),
        (cut, source, target, None),
        (adjacency, source, target, edge_ok),
        (adjacency, source, target, lambda u, v: edge_ok(u, v)),
    ]
    for topology, src, dst, predicate in calls:
        state = YenState()
        yen_k_shortest_paths(adjacency, source, target, 6, state=state)
        for k in (1, 4, 9):
            assert yen_k_shortest_paths(
                topology, src, dst, k, predicate, state=state
            ) == yen_k_shortest_paths(topology, src, dst, k, predicate)
        assert state.topology is topology
        assert (state.source, state.target) == (src, dst)
        assert state.edge_ok is predicate


def test_first_is_ignored_when_resuming():
    adjacency = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2]}
    state = YenState()
    assert yen_k_shortest_paths(
        adjacency, 0, 3, 1, first=[0, 2, 3], state=state
    ) == [[0, 2, 3]]
    assert state.first == [0, 2, 3]
    # Resumed: the enumeration keeps the path it started from.
    assert yen_k_shortest_paths(
        adjacency, 0, 3, 2, first=[0, 1, 3], state=state
    ) == [[0, 2, 3], [0, 1, 3]]
    assert yen_k_shortest_paths(adjacency, 0, 3, 2) == [
        [0, 1, 3],
        [0, 2, 3],
    ]


# ------------------------------------------------------------------- table


class FromScratchTable(RoutingTable):
    """The table as it was before entries kept their Yen enumeration.

    ``lookup`` and ``replace_path`` are the earlier implementations
    verbatim: every miss and every replacement runs Yen from scratch,
    a replacement with ``k = yen_cursor + 1``.
    """

    def lookup(self, sender, receiver, topology, now=0.0):
        pair = (sender, receiver)
        entry = self._entries.get(pair)
        if entry is None:
            paths = self._ranked_paths(sender, receiver, topology, self.m)
            entry = TableEntry(
                paths=paths, last_used=now, yen_cursor=len(paths)
            )
            entry.misses += 1
            self._entries[pair] = entry
            self._enforce_capacity()
        else:
            entry.hits += 1
            entry.last_used = now
        return entry

    def replace_path(self, sender, receiver, dead_path, topology):
        pair = (sender, receiver)
        entry = self._entries.get(pair)
        if entry is None or dead_path not in entry.paths:
            return None
        ranked = self._ranked_paths(
            sender, receiver, topology, entry.yen_cursor + 1
        )
        replacement = None
        existing = {tuple(path) for path in entry.paths}
        for candidate in ranked[entry.yen_cursor:]:
            if tuple(candidate) not in existing:
                replacement = candidate
                break
        entry.yen_cursor = max(entry.yen_cursor + 1, len(ranked))
        index = entry.paths.index(dead_path)
        if replacement is None:
            del entry.paths[index]
            return None
        entry.paths[index] = replacement
        return replacement


def _table_graph(rng: random.Random) -> ChannelGraph:
    graph = ChannelGraph()
    for u, v in barabasi_albert_edges(rng.choice((10, 16)), 2, rng):
        graph.add_channel(_node_id(u), _node_id(v), 10.0, 10.0)
    graph.add_channel("island-a", "island-b", 10.0, 10.0)
    graph.add_node("lone")
    return graph


def _batch(rng: random.Random, graph: ChannelGraph) -> list[ChannelEvent]:
    """Apply a random batch of closes and opens to ``graph``."""
    events = []
    for _ in range(rng.randrange(0, 4)):
        channels = list(graph.channels())
        if rng.random() < 0.5 and channels:
            channel = rng.choice(channels)
            graph.remove_channel(channel.a, channel.b)
            events.append(
                ChannelEvent(0.0, ChannelEventType.CLOSE, channel.a, channel.b)
            )
        else:
            candidates = dict.fromkeys(graph.nodes + ["new-a", "new-b"])
            a, b = rng.sample(list(candidates), 2)
            if graph.has_channel(a, b):
                continue
            graph.add_channel(a, b, 10.0, 10.0)
            events.append(
                ChannelEvent(0.0, ChannelEventType.OPEN, a, b, 10.0, 10.0)
            )
    return events


def _snapshot(graph: ChannelGraph, form: str):
    return graph.compact() if form == "compact" else graph.adjacency()


def _assert_same(table: RoutingTable, reference: RoutingTable, step) -> None:
    assert list(table._entries) == list(reference._entries), step
    for pair, entry in table._entries.items():
        expected = reference._entries[pair]
        assert entry.paths == expected.paths, (step, pair)
        assert entry.yen_cursor == expected.yen_cursor, (step, pair)


@pytest.mark.parametrize("form", ("compact", "mapping"))
@pytest.mark.parametrize("seed", range(6))
def test_table_matches_from_scratch_replacement(seed, form):
    rng = random.Random(seed)
    graph = _table_graph(rng)
    topology = _snapshot(graph, form)
    m = rng.choice((1, 2, 3))
    table = RoutingTable(m=m)
    reference = FromScratchTable(m=m)
    if seed % 2:
        # Evict (and later rebuild) BFS layers, re-stamped ones included.
        table.MAX_SOURCE_LAYERS = reference.MAX_SOURCE_LAYERS = 3
    nodes = graph.nodes
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(10)]
    pairs += [(nodes[0], "island-a"), (nodes[0], "lone")]
    kinds = set()

    for step in range(160):
        roll = rng.random()
        if roll < 0.3 or not table._entries:
            sender, receiver = rng.choice(pairs)
            got = table.lookup(sender, receiver, topology, now=step)
            want = reference.lookup(sender, receiver, topology, now=step)
            assert got.paths == want.paths, step
            kinds.add("lookup")
        elif roll < 0.85:
            pair = rng.choice(list(table._entries))
            entry = table._entries[pair]
            if entry.paths and rng.random() < 0.9:
                dead = list(rng.choice(entry.paths))
            else:
                dead = [pair[0], "nowhere", pair[1]]
            got = table.replace_path(pair[0], pair[1], dead, topology)
            want = reference.replace_path(pair[0], pair[1], dead, topology)
            assert got == want, step
            kinds.add("replace" if got is not None else "replace-none")
        elif roll < 0.9:
            topology = _snapshot(graph, form)
            table.refresh(topology)
            reference.refresh(topology)
            kinds.add("refresh")
        else:
            events = _batch(rng, graph)
            topology = _snapshot(graph, form)
            assert table.apply_events(events, topology) == (
                reference.apply_events(events, topology)
            ), step
            kinds.add("apply_events")
        _assert_same(table, reference, step)

    assert kinds >= {"lookup", "replace", "replace-none", "apply_events"}


def test_rebuilt_layer_with_another_first_path_restarts():
    # An open between BFS levels 1 and 2 keeps the sender's layer, re-stamped
    # with 3's old parent 2; after eviction, a fresh BFS reaches 3 through 1.
    graph = ChannelGraph()
    for a, b in ((0, 1), (0, 2), (2, 3), (3, 4)):
        graph.add_channel(a, b, 10.0, 10.0)
    table = RoutingTable(m=1)
    reference = FromScratchTable(m=1)
    before = graph.compact()
    for each in (table, reference):
        each.lookup(0, 4, before)
    graph.add_channel(1, 3, 10.0, 10.0)
    after = graph.compact()
    events = [ChannelEvent(0.0, ChannelEventType.OPEN, 1, 3, 10.0, 10.0)]
    for each in (table, reference):
        assert each.apply_events(events, after) == (0, 0)
        assert each.lookup(0, 3, after).paths == [[0, 2, 3]]
        each.MAX_SOURCE_LAYERS = 1
        each.lookup(1, 4, after)  # evicts the re-stamped layer of 0
        assert 0 not in each._source_layers
    # From scratch, Yen now starts from [0, 1, 3] and ranks [0, 2, 3]
    # second: it is the path being replaced, so none is left.
    assert reference.replace_path(0, 3, [0, 2, 3], after) is None
    assert table.replace_path(0, 3, [0, 2, 3], after) is None
    _assert_same(table, reference, "after replacement")
