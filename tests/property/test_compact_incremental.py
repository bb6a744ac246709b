"""Fuzz equivalence of incremental compact-topology maintenance.

The contract under test (docs/ARCHITECTURE.md, "Incremental topology
maintenance"): however a :class:`ChannelGraph` is churned — opens,
closes, refused closes (in-flight escrow), refused duplicate opens,
brand-new nodes, reopens of just-closed channels — the incrementally
maintained :meth:`ChannelGraph.compact` snapshot must be **observably
identical** to a from-scratch ``CompactTopology.from_adjacency`` rebuild
of the same graph: same node interning order, same neighbor tuples,
consistent ``slot_of``/``slot_tail``/``reverse_slot`` bookkeeping, and
identical BFS results.  Randomized sequences are generated with seeded
stdlib :mod:`random` only, so every failure reproduces from its seed.

The same contract holds for sibling copies: every ``ChannelGraph.copy``
of one unchanged source forks one shared snapshot, and each copy then
churns (and reprices) on its own without disturbing its siblings.

The second half pins the engine-level guarantee behind the
``ChannelGraph.incremental_compact`` flag: full simulations over churn
produce byte-identical records whichever compact path is active.
"""

from __future__ import annotations

import random

import pytest

from repro.network.compact import (
    CompactTopology,
    get_default_backend,
    numpy_available,
    set_default_backend,
)
from repro.network.dynamics import (
    ChannelEvent,
    ChannelEventType,
    ChurnModel,
    GossipSchedule,
    run_dynamic_simulation,
)
from repro.network.fees import ChannelPolicy
from repro.network.graph import ChannelGraph
from repro.network.paths import bfs_distances, bfs_shortest_path
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    uniform_sampler,
)
from repro.sim.factories import flash_factory
from repro.traces.generators import generate_ripple_workload

#: Small graphs stay below the bidirectional-kernel threshold, so path
#: *sequences* (not just lengths) must match the rebuild exactly; the
#: large size exercises the bidirectional kernels on delta snapshots.
GRAPH_SIZES = (40, 150)


@pytest.fixture(autouse=True, params=("python", "numpy"))
def kernel_backend(request):
    """Run every fuzz case under both kernel backends.

    The incremental-maintenance contract is backend-independent: delta
    snapshots, tombstones, and arena growth must be observably identical
    to a rebuild whichever kernels execute the BFS.  Parameterizing at
    module level reuses the whole suite as a second differential layer on
    top of tests/property/test_backend_equivalence.py.
    """
    if request.param == "numpy" and not numpy_available():
        pytest.skip("numpy is not installed")
    previous = get_default_backend()
    set_default_backend(request.param)
    yield request.param
    set_default_backend(previous)


def _random_graph(rng: random.Random, n_nodes: int) -> ChannelGraph:
    edges = barabasi_albert_edges(n_nodes, 2, rng)
    return build_channel_graph(edges, uniform_sampler(50.0, 150.0), rng)


def _random_op(rng: random.Random, graph: ChannelGraph) -> str:
    """Mutate (or refuse to mutate) the graph with one random event."""
    choice = rng.random()
    nodes = graph.nodes
    if choice < 0.35:  # open between existing nodes (skip duplicates)
        a, b = rng.sample(nodes, 2)
        if not graph.has_channel(a, b):
            graph.add_channel(a, b, rng.uniform(10, 50), rng.uniform(10, 50))
            return "open"
        # Duplicate open refused through the gossip path: must be a no-op.
        version = graph.topology_version
        schedule = GossipSchedule(
            graph=graph,
            events=[
                ChannelEvent(0.0, ChannelEventType.OPEN, a, b, 10.0, 10.0)
            ],
        )
        assert schedule.advance_to(1.0) == 0
        assert graph.topology_version == version
        return "open-refused"
    if choice < 0.65:  # close a random existing channel
        channel = rng.choice(list(graph.channels()))
        graph.remove_channel(channel.a, channel.b)
        return "close"
    if choice < 0.8:  # refused close: in-flight escrow pins the channel
        channel = rng.choice(list(graph.channels()))
        a, b = channel.a, channel.b
        held = min(channel.balance(a, b), 1.0)
        graph.hold(a, b, held)
        version = graph.topology_version
        schedule = GossipSchedule(
            graph=graph,
            events=[ChannelEvent(0.0, ChannelEventType.CLOSE, a, b)],
        )
        assert schedule.advance_to(1.0) == 0
        assert graph.topology_version == version, (
            "refused close must not bump topology_version"
        )
        graph.release_hold(a, b, held)
        return "close-refused"
    if choice < 0.9:  # brand-new node joins with one channel
        new_node = f"n{graph.num_nodes()}-{rng.randrange(1_000_000)}"
        graph.add_channel(new_node, rng.choice(nodes), 25.0, 25.0)
        return "open-new-node"
    # Reopen: close then immediately reopen the same channel (the
    # neighbor moves to the end of both rows, like a dict del + re-add).
    channel = rng.choice(list(graph.channels()))
    a, b = channel.a, channel.b
    graph.remove_channel(a, b)
    graph.add_channel(a, b, 30.0, 30.0)
    return "reopen"


def _assert_observably_identical(
    incremental: CompactTopology, graph: ChannelGraph, rng: random.Random
) -> None:
    """The full observable-equivalence check against a fresh rebuild."""
    rebuilt = CompactTopology.from_adjacency(
        graph.adjacency(), version=graph.topology_version
    )
    # Node set and interning order.
    assert list(incremental) == list(rebuilt)
    assert len(incremental) == len(rebuilt)
    # Neighbor tuples, node for node (order matters: it is the BFS
    # tie-break), plus live slot bookkeeping.
    adjacency = graph.adjacency()
    for node, neighbors in adjacency.items():
        assert list(incremental[node]) == neighbors
        u = incremental.index_of(node)
        assert u is not None
        for neighbor in neighbors:
            v = incremental.index_of(neighbor)
            slot = incremental.slot_of(u, v)
            assert slot is not None
            assert incremental.indices[slot] == v
            assert incremental.slot_tail[slot] == u
            reverse = incremental.reverse_slot[slot]
            assert incremental.reverse_slot[reverse] == slot
            assert incremental.slot_of(v, u) == reverse
    assert incremental.live_slots == rebuilt.num_slots
    # Tombstoned and never-existing directed edges resolve to no slot.
    nodes = graph.nodes
    for _ in range(20):
        a, b = rng.sample(nodes, 2)
        if not graph.has_channel(a, b):
            slot = incremental.slot_of(
                incremental.index_of(a), incremental.index_of(b)
            )
            assert slot is None
    # BFS distances from 10 random sources, and (below the
    # bidirectional threshold) bit-identical shortest paths.
    sources = [rng.choice(nodes) for _ in range(10)]
    for source in sources:
        assert bfs_distances(incremental, source) == bfs_distances(
            rebuilt, source
        )
        target = rng.choice(nodes)
        fast = bfs_shortest_path(incremental, source, target)
        slow = bfs_shortest_path(rebuilt, source, target)
        if incremental.num_nodes < CompactTopology.BIDIRECTIONAL_MIN_NODES:
            assert fast == slow
        else:
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert len(fast) == len(slow)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_nodes", GRAPH_SIZES)
    def test_random_churn_sequences(self, seed, n_nodes):
        rng = random.Random(1_000 * n_nodes + seed)
        graph = _random_graph(rng, n_nodes)
        graph.compact()  # warm the cache so deltas are logged
        for _batch in range(8):
            for _ in range(rng.randrange(1, 6)):
                _random_op(rng, graph)
            incremental = graph.compact()
            assert incremental is graph.compact()  # cached until next event
            _assert_observably_identical(incremental, graph, rng)

    def test_compaction_threshold_crossed(self):
        # Enough churn to cross the dead+arena threshold several times:
        # the periodic full rebuild must reset the counters and keep the
        # same observable topology.
        rng = random.Random(7)
        graph = _random_graph(rng, 40)
        graph.compact()
        compactions = 0
        for _ in range(300):
            _random_op(rng, graph)
            snapshot = graph.compact()
            if snapshot._dead_count == 0 and snapshot._arena_count == 0:
                compactions += 1
        assert compactions > 0, "the compaction trigger never fired"
        _assert_observably_identical(graph.compact(), graph, rng)

    def test_old_snapshot_stays_frozen(self):
        # A router holding the pre-delta snapshot between gossip ticks
        # must keep seeing the old topology (stale-but-consistent).
        rng = random.Random(3)
        graph = _random_graph(rng, 40)
        before = graph.compact()
        frozen_nodes = list(before)
        frozen_neighbors = {node: before[node] for node in before}
        frozen_slots = before.num_slots
        for _ in range(10):
            _random_op(rng, graph)
        graph.compact()
        assert list(before) == frozen_nodes
        assert {node: before[node] for node in before} == frozen_neighbors
        assert before.num_slots == frozen_slots

    def test_full_rebuild_flag_forces_from_scratch(self):
        rng = random.Random(11)
        graph = _random_graph(rng, 40)
        warmed = graph.compact()
        try:
            ChannelGraph.incremental_compact = False
            graph.add_channel(*rng.sample(graph.nodes, 2), 5.0, 5.0)
            rebuilt = graph.compact()
            # A from-scratch rebuild never carries tombstones or arena.
            assert rebuilt is not warmed
            assert rebuilt._arena_count == 0 and rebuilt._dead_count == 0
            assert rebuilt.num_slots == rebuilt.live_slots
        finally:
            ChannelGraph.incremental_compact = True


def _random_policy_update(rng: random.Random, graph: ChannelGraph) -> None:
    """Gossip a fresh BOLT #7 policy for one random channel direction."""
    channel = rng.choice(list(graph.channels()))
    src, dst = (channel.a, channel.b)
    if rng.random() < 0.5:
        src, dst = dst, src
    graph.set_channel_policy(
        src,
        dst,
        ChannelPolicy(
            base_fee=rng.uniform(0.0, 2.0),
            fee_rate=rng.uniform(0.0, 0.01),
            cltv_delta=rng.randrange(10, 150),
            htlc_min=rng.uniform(0.0, 1.0),
            htlc_max=rng.uniform(50.0, 500.0),
        ),
    )


def _assert_matches_rebuild(
    snapshot: CompactTopology, graph: ChannelGraph, rng: random.Random
) -> None:
    """Observable identity plus slot space and policy arrays."""
    _assert_observably_identical(snapshot, graph, rng)
    rebuilt = CompactTopology.from_adjacency(
        graph.adjacency(), version=graph.topology_version
    )
    # The slot space is this graph's own: live slots plus its own
    # tombstones, and no sibling's arena appended behind it.
    assert snapshot.num_slots - snapshot._dead_count == rebuilt.num_slots
    assert len(snapshot.indices) == snapshot.num_slots
    assert len(snapshot.slot_tail) == snapshot.num_slots
    assert len(snapshot.reverse_slot) == snapshot.num_slots
    if not graph.policy_aware:
        assert snapshot._policy_arrays is None
        return
    rebuilt.install_policies(graph.channel_policy, version=graph.policy_version)
    assert snapshot.policy_version == graph.policy_version
    for array in snapshot._policy_arrays:
        assert len(array) == snapshot.num_slots  # slot-parallel, unshared
    for node, neighbors in graph.adjacency().items():
        u = snapshot.index_of(node)
        ref_u = rebuilt.index_of(node)
        for neighbor in neighbors:
            slot = snapshot.slot_of(u, snapshot.index_of(neighbor))
            ref = rebuilt.slot_of(ref_u, rebuilt.index_of(neighbor))
            for mine, theirs in zip(
                snapshot._policy_arrays, rebuilt._policy_arrays
            ):
                assert mine[slot] == theirs[ref]


@pytest.fixture
def interned_versions(monkeypatch):
    """Record the version of every ``from_adjacency`` build."""
    versions: list[int] = []
    build = CompactTopology.from_adjacency.__func__

    def counting(cls, adjacency, version=0, backend=None):
        versions.append(version)
        return build(cls, adjacency, version=version, backend=backend)

    monkeypatch.setattr(CompactTopology, "from_adjacency", classmethod(counting))
    return versions


class TestSiblingCopies:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_nodes", GRAPH_SIZES)
    def test_sibling_copies_churn_independently(
        self, seed, n_nodes, interned_versions
    ):
        rng = random.Random(5_000 * n_nodes + seed)
        source = _random_graph(rng, n_nodes)
        if seed % 2:  # copies start policy-aware
            for _ in range(3):
                _random_policy_update(rng, source)
        clones = [source.copy() for _ in range(3)]
        before = len(interned_versions)
        firsts = [clone.compact() for clone in clones]
        # One interning for the three siblings, each its own fork.
        assert len(interned_versions) == before + 1
        assert len({id(first) for first in firsts}) == 3
        assert len({id(first.indices) for first in firsts}) == 3
        for clone, first in zip(clones, firsts):
            assert first.version == clone.topology_version
            _assert_matches_rebuild(first, clone, rng)

        clone_rngs = [random.Random(rng.randrange(1 << 30)) for _ in clones]
        for _batch in range(6):
            for clone, clone_rng in zip(clones, clone_rngs):
                for _ in range(clone_rng.randrange(1, 6)):
                    if clone_rng.random() < 0.25:
                        _random_policy_update(clone_rng, clone)
                    else:
                        _random_op(clone_rng, clone)
            # Checked only once every sibling has churned, so damage one
            # sibling's deltas did to another's snapshot would show.
            for clone, clone_rng in zip(clones, clone_rngs):
                _assert_matches_rebuild(clone.compact(), clone, clone_rng)

    def test_interning_once_per_source_version(self, interned_versions):
        rng = random.Random(41)
        source = _random_graph(rng, 40)
        first = source.copy()
        first.compact()
        assert len(interned_versions) == 1
        late = source.copy()  # same source version, taken later
        late.compact()
        assert len(interned_versions) == 1

        a, b = rng.sample(source.nodes, 2)
        if source.has_channel(a, b):
            source.remove_channel(a, b)
        else:
            source.add_channel(a, b, 20.0, 20.0)
        moved = [source.copy() for _ in range(3)]
        snapshots = [clone.compact() for clone in moved]
        assert len(interned_versions) == 2
        for clone, snapshot in zip(moved, snapshots):
            _assert_matches_rebuild(snapshot, clone, rng)

        # A copy changed before its first compact() rebuilds on its own.
        changed = source.copy()
        changed.add_channel("newcomer", source.nodes[0], 5.0, 5.0)
        before = len(interned_versions)
        snapshot = changed.compact()
        assert interned_versions[before:] == [changed.topology_version]
        _assert_matches_rebuild(snapshot, changed, rng)

    def test_copy_keeps_node_major_order_and_version(self):
        rng = random.Random(8)
        source = _random_graph(rng, 40)
        for _ in range(10):
            _random_op(rng, source)
        clone = source.copy()
        replay = ChannelGraph()
        for node in source.nodes:
            replay.add_node(node)
        for channel in source.channels():
            replay.add_channel(
                channel.a, channel.b, channel.balance_ab, channel.balance_ba
            )
        assert list(clone.adjacency().items()) == list(
            replay.adjacency().items()
        )
        assert clone.topology_version == replay.topology_version
        for channel in source.channels():
            twin = clone.channel(channel.a, channel.b)
            assert twin is not channel
            assert (twin.a, twin.b) == (channel.a, channel.b)
            assert (twin.balance_ab, twin.balance_ba) == (
                channel.balance_ab,
                channel.balance_ba,
            )
            assert (twin.fee_ab, twin.fee_ba) == (channel.fee_ab, channel.fee_ba)


class TestEngineMetricIdentity:
    """Both compact paths must be metric-identical end to end."""

    def _churned_inputs(self, seed: int):
        rng = random.Random(seed)
        graph = _random_graph(rng, 60)
        graph.scale_balances(10.0)
        workload = generate_ripple_workload(rng, graph.nodes, 60)
        churn = ChurnModel(
            graph,
            random.Random(seed + 1),
            opens_per_hour=240.0,
            closes_per_hour=240.0,
        )
        events = churn.generate(workload[len(workload) - 1].time)
        assert events, "calibration: the fuzz needs real churn"
        return graph, workload, events

    def _records(self, result):
        return [
            (r.txid, r.success, r.fee, r.probe_messages, r.payment_messages)
            for r in result.records
        ]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequential_engine_identical(self, seed):
        graph, workload, events = self._churned_inputs(seed)
        incremental = run_dynamic_simulation(
            graph, flash_factory(k=5, m=2), workload, events,
            rng=random.Random(2), gossip_period=120.0,
        )
        try:
            ChannelGraph.incremental_compact = False
            rebuild = run_dynamic_simulation(
                graph, flash_factory(k=5, m=2), workload, events,
                rng=random.Random(2), gossip_period=120.0,
            )
        finally:
            ChannelGraph.incremental_compact = True
        assert self._records(incremental) == self._records(rebuild)

    def test_concurrent_engine_identical(self):
        from repro.sim.concurrent import (
            ConcurrencyConfig,
            run_concurrent_simulation,
        )

        graph, workload, events = self._churned_inputs(5)
        config = ConcurrencyConfig(load=40.0, gossip_period=120.0)
        incremental = run_concurrent_simulation(
            graph, flash_factory(k=5, m=2), workload,
            rng=random.Random(9), config=config, events=events,
        )
        try:
            ChannelGraph.incremental_compact = False
            rebuild = run_concurrent_simulation(
                graph, flash_factory(k=5, m=2), workload,
                rng=random.Random(9), config=config, events=events,
            )
        finally:
            ChannelGraph.incremental_compact = True
        assert self._records(incremental) == self._records(rebuild)
