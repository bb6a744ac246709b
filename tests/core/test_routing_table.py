"""Tests for the mice routing table."""

import pytest

from repro.core.routing_table import RoutingTable, _node_depth
from repro.network.compact import CompactTopology
from repro.network.paths import yen_k_shortest_paths


class TestLookup:
    def test_first_lookup_computes_m_paths(self, grid_graph):
        table = RoutingTable(m=4)
        entry = table.lookup(0, 8, grid_graph.adjacency())
        assert len(entry.paths) == 4
        assert all(p[0] == 0 and p[-1] == 8 for p in entry.paths)

    def test_recurring_lookup_is_cached(self, grid_graph):
        table = RoutingTable(m=4)
        adjacency = grid_graph.adjacency()
        first = table.lookup(0, 8, adjacency)
        second = table.lookup(0, 8, adjacency)
        assert first is second
        assert second.hits == 1
        assert table.hit_ratio == 0.5

    def test_disconnected_receiver_empty_entry(self, grid_graph):
        grid_graph.add_node(99)
        table = RoutingTable(m=4)
        entry = table.lookup(0, 99, grid_graph.adjacency())
        assert entry.paths == []

    def test_per_pair_entries(self, grid_graph):
        table = RoutingTable(m=2)
        adjacency = grid_graph.adjacency()
        table.lookup(0, 8, adjacency)
        table.lookup(8, 0, adjacency)
        assert len(table) == 2


class TestReplacement:
    def test_dead_path_replaced_with_next_shortest(self, grid_graph):
        table = RoutingTable(m=2)
        adjacency = grid_graph.adjacency()
        entry = table.lookup(0, 8, adjacency)
        dead = entry.paths[0]
        replacement = table.replace_path(0, 8, dead, adjacency)
        assert replacement is not None
        assert replacement not in (dead,)
        assert dead not in entry.paths
        assert len(entry.paths) == 2

    def test_replacement_differs_from_existing(self, grid_graph):
        table = RoutingTable(m=3)
        adjacency = grid_graph.adjacency()
        entry = table.lookup(0, 8, adjacency)
        replacement = table.replace_path(0, 8, entry.paths[1], adjacency)
        assert replacement is not None
        assert len({tuple(p) for p in entry.paths}) == 3

    def test_exhausted_topology_drops_path(self, line_graph):
        table = RoutingTable(m=1)
        adjacency = line_graph.adjacency()
        entry = table.lookup(0, 3, adjacency)
        # A line has exactly one simple path: no replacement exists.
        assert table.replace_path(0, 3, entry.paths[0], adjacency) is None
        assert entry.paths == []

    def test_replace_unknown_pair_is_noop(self, grid_graph):
        table = RoutingTable(m=2)
        assert table.replace_path(0, 8, [0, 1, 8], grid_graph.adjacency()) is None


class TestMaintenance:
    def test_refresh_recomputes_entries(self, grid_graph):
        table = RoutingTable(m=2)
        adjacency = grid_graph.adjacency()
        entry = table.lookup(0, 8, adjacency)
        # Channel 0-1 disappears; refresh must drop paths through it.
        grid_graph.remove_channel(0, 1)
        table.refresh(grid_graph.adjacency())
        assert all(path[1] == 3 for path in entry.paths)

    def test_ttl_eviction(self, grid_graph):
        table = RoutingTable(m=2, entry_ttl=100.0)
        adjacency = grid_graph.adjacency()
        table.lookup(0, 8, adjacency, now=0.0)
        table.lookup(0, 5, adjacency, now=150.0)
        assert table.evict_stale(now=200.0) == 1
        assert (0, 8) not in table
        assert (0, 5) in table

    def test_infinite_ttl_never_evicts(self, grid_graph):
        table = RoutingTable(m=2)
        table.lookup(0, 8, grid_graph.adjacency(), now=0.0)
        assert table.evict_stale(now=1e12) == 0

    def test_max_entries_lru(self, grid_graph):
        table = RoutingTable(m=1, max_entries=2)
        adjacency = grid_graph.adjacency()
        table.lookup(0, 8, adjacency, now=0.0)
        table.lookup(0, 5, adjacency, now=1.0)
        table.lookup(0, 7, adjacency, now=2.0)
        assert len(table) == 2
        assert (0, 8) not in table


class TestStructuralBfsLayer:
    """The per-source BFS tree shared across (src, dst) pairs."""

    def test_tree_shared_across_receivers(self, grid_graph):
        table = RoutingTable(m=2)
        adjacency = grid_graph.adjacency()
        table.lookup(0, 8, adjacency)
        table.lookup(0, 5, adjacency)
        table.lookup(0, 7, adjacency)
        # One tree for source 0, reused by every receiver.
        assert list(table._source_layers) == [0]

    def test_first_path_matches_bfs(self, grid_graph):
        from bfs_reference import bfs_shortest_path

        table = RoutingTable(m=4)
        adjacency = grid_graph.adjacency()
        for receiver in (5, 7, 8):
            entry = table.lookup(0, receiver, adjacency)
            assert entry.paths[0] == bfs_shortest_path(adjacency, 0, receiver)

    def test_refresh_invalidates_trees(self, grid_graph):
        table = RoutingTable(m=2)
        adjacency = grid_graph.adjacency()
        table.lookup(0, 8, adjacency)
        grid_graph.remove_channel(0, 1)
        updated = grid_graph.adjacency()
        table.refresh(updated)
        entry = table.lookup(0, 8, updated)
        assert all(path[1] == 3 for path in entry.paths)

    def test_new_topology_object_recomputes_tree(self, grid_graph):
        table = RoutingTable(m=1)
        adjacency = grid_graph.adjacency()
        table.lookup(0, 8, adjacency)
        grid_graph.remove_channel(0, 1)
        # A *fresh* topology object (new token) must not reuse the tree.
        entry = table.lookup(0, 5, grid_graph.adjacency())
        assert all(path[1] == 3 for path in entry.paths)

    def test_compact_topology_token_uses_version(self, grid_graph):
        # A snapshot never changes, so the layer is validated by the
        # snapshot's identity alone: the same object reuses the tree, and
        # the next version (a new object) builds a new one.
        table = RoutingTable(m=2)
        compact = grid_graph.compact()
        table.lookup(0, 8, compact)
        layer = table._source_layers[0]
        assert layer.topology is compact
        table.lookup(0, 5, compact)
        assert table._source_layers[0] is layer
        grid_graph.remove_channel(0, 1)
        updated = grid_graph.compact()
        assert updated.version != compact.version
        table.lookup(0, 7, updated)
        assert table._source_layers[0].topology is updated
        assert table._source_layers[0].parents[1] == 4

    def test_lru_bound_interplay_with_structural_cache(self, grid_graph):
        # Entry eviction (max_entries) must not corrupt the shared tree:
        # a re-looked-up evicted pair recomputes the same paths.
        table = RoutingTable(m=2, max_entries=2)
        adjacency = grid_graph.adjacency()
        original = list(table.lookup(0, 8, adjacency, now=0.0).paths)
        table.lookup(0, 5, adjacency, now=1.0)
        table.lookup(0, 7, adjacency, now=2.0)  # evicts (0, 8)
        assert (0, 8) not in table
        recomputed = table.lookup(0, 8, adjacency, now=3.0)
        assert recomputed.paths == original
        assert recomputed.misses == 1
        assert len(table) == 2

    def test_replacement_consistent_with_seeded_yen(self, grid_graph):
        from repro.network.paths import yen_k_shortest_paths

        table = RoutingTable(m=2)
        adjacency = grid_graph.adjacency()
        entry = table.lookup(0, 8, adjacency)
        dead = entry.paths[0]
        replacement = table.replace_path(0, 8, dead, adjacency)
        ranked = yen_k_shortest_paths(adjacency, 0, 8, 3)
        assert replacement == ranked[2]


class TestSelectiveInvalidation:
    """apply_events: only the BFS layers/entries an event touched go."""

    @staticmethod
    def _close(a, b):
        from repro.network.dynamics import ChannelEvent, ChannelEventType

        return ChannelEvent(0.0, ChannelEventType.CLOSE, a, b)

    @staticmethod
    def _open(a, b):
        from repro.network.dynamics import ChannelEvent, ChannelEventType

        return ChannelEvent(0.0, ChannelEventType.OPEN, a, b, 10.0, 10.0)

    @staticmethod
    def _unused_edge(graph, parents):
        """A channel the BFS tree does not traverse."""
        for channel in graph.channels():
            a, b = channel.a, channel.b
            if parents.get(a) != b and parents.get(b) != a:
                return a, b
        raise AssertionError("grid trees never use every channel")

    def test_unrelated_close_keeps_layer_and_entries(self, grid_graph):
        table = RoutingTable(m=1)
        compact = grid_graph.compact()
        table.lookup(0, 1, compact)  # entry whose single path is 0-1
        layer = table._source_layers[0]
        a, b = self._unused_edge(grid_graph, layer.parents)
        assert {a, b} != {0, 1}
        grid_graph.remove_channel(a, b)
        refreshed = grid_graph.compact()
        assert refreshed is not compact
        dropped, recomputed = table.apply_events(
            [self._close(a, b)], refreshed
        )
        assert (dropped, recomputed) == (0, 0)
        survivor = table._source_layers[0]
        assert survivor.parents is layer.parents  # tree reused, not rebuilt
        assert survivor.topology is refreshed  # but re-stamped to validate
        assert table._source_tree(0, refreshed) is layer.parents

    def test_tree_edge_close_drops_layer_and_recomputes_entry(
        self, grid_graph
    ):
        table = RoutingTable(m=2)
        compact = grid_graph.compact()
        entry = table.lookup(0, 8, compact)
        layer = table._source_layers[0]
        # Close a channel the (0, 8) cached paths actually traverse.
        path = entry.paths[0]
        u, v = path[0], path[1]
        assert layer.parents.get(v) == u
        grid_graph.remove_channel(u, v)
        refreshed = grid_graph.compact()
        dropped, recomputed = table.apply_events(
            [self._close(u, v)], refreshed
        )
        assert dropped >= 1 and recomputed >= 1
        assert 0 not in table._source_layers or (
            table._source_layers[0].parents is not layer.parents
        )
        for new_path in table.lookup(0, 8, refreshed).paths:
            assert (u, v) not in zip(new_path, new_path[1:])

    def test_short_range_open_keeps_layer(self, grid_graph):
        table = RoutingTable(m=1)
        table.lookup(0, 8, grid_graph.compact())
        layer = table._source_layers[0]
        depths = {node: _node_depth(layer.parents, node) for node in (1, 3)}
        assert abs(depths[1] - depths[3]) <= 1  # both at depth 1
        grid_graph.add_channel(1, 3, 10.0, 10.0)
        refreshed = grid_graph.compact()
        dropped, recomputed = table.apply_events(
            [self._open(1, 3)], refreshed
        )
        assert (dropped, recomputed) == (0, 0)
        assert table._source_layers[0].parents is layer.parents

    def test_shortcut_open_drops_layer(self, grid_graph):
        table = RoutingTable(m=1)
        table.lookup(0, 8, grid_graph.compact())
        layer = table._source_layers[0]
        assert abs(
            _node_depth(layer.parents, 0) - _node_depth(layer.parents, 8)
        ) > 1
        grid_graph.add_channel(0, 8, 10.0, 10.0)
        refreshed = grid_graph.compact()
        dropped, recomputed = table.apply_events(
            [self._open(0, 8)], refreshed
        )
        assert dropped == 1 and recomputed == 1
        entry = table.lookup(0, 8, refreshed)
        assert entry.paths[0] == [0, 8]  # the new shortcut is picked up

    def test_open_without_layer_recomputes_conservatively(self, grid_graph):
        table = RoutingTable(m=1)
        compact = grid_graph.compact()
        table.lookup(0, 8, compact)
        table.invalidate_structural_cache()  # simulate LRU eviction
        grid_graph.add_channel(0, 8, 10.0, 10.0)
        refreshed = grid_graph.compact()
        dropped, recomputed = table.apply_events(
            [self._open(0, 8)], refreshed
        )
        assert dropped == 0 and recomputed == 1
        assert table.lookup(0, 8, refreshed).paths[0] == [0, 8]

    def test_layerless_sender_recomputes_all_entries(self, line_graph):
        # Regression: recomputing a layerless sender's first entry
        # rebuilds its BFS layer as a side effect; that must not let
        # the sender's *other* entries dodge the conservative open
        # rule and keep stale non-shortest paths.
        line_graph.add_channel(3, 4, 100.0, 100.0)
        line_graph.add_channel(4, 5, 100.0, 100.0)  # line 0-1-2-3-4-5
        table = RoutingTable(m=1)
        compact = line_graph.compact()
        table.lookup(0, 4, compact)
        table.lookup(0, 5, compact)
        table.invalidate_structural_cache()  # simulate LRU eviction
        line_graph.add_channel(0, 4, 10.0, 10.0)  # shortcut
        refreshed = line_graph.compact()
        dropped, recomputed = table.apply_events(
            [self._open(0, 4)], refreshed
        )
        assert (dropped, recomputed) == (0, 2)
        assert table.lookup(0, 4, refreshed).paths[0] == [0, 4]
        assert table.lookup(0, 5, refreshed).paths[0] == [0, 4, 5]

    def test_empty_batch_restamps_only(self, grid_graph):
        table = RoutingTable(m=1)
        compact = grid_graph.compact()
        table.lookup(0, 8, compact)
        layer = table._source_layers[0]
        assert table.apply_events([], compact) == (0, 0)
        assert table._source_layers[0] is layer


class TestResumedEnumeration:
    """Replacements resume each entry's Yen enumeration (§3.3)."""

    @staticmethod
    def _spur_searches(monkeypatch) -> list:
        """Record every spur search Yen makes (no ``edge_ok``: banned BFS)."""
        calls: list = []
        original = CompactTopology.shortest_path_banned

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CompactTopology, "shortest_path_banned", counting)
        return calls

    @staticmethod
    def _filled(table, topology, receivers=(5, 7, 8)):
        """Entries from 0 that each made one replacement on ``topology``."""
        for receiver in receivers:
            entry = table.lookup(0, receiver, topology)
            table.replace_path(0, receiver, entry.paths[0], topology)
        entries = list(table._entries.values())
        assert all(entry.yen.topology is topology for entry in entries)
        return entries

    def test_replacement_costs_one_yen_iteration(
        self, grid_graph, monkeypatch
    ):
        compact = grid_graph.compact()
        ranked = yen_k_shortest_paths(compact, 0, 8, 100)
        assert len(ranked) < 100  # every simple path of the grid
        spurs = self._spur_searches(monkeypatch)
        table = RoutingTable(m=3)
        entry = table.lookup(0, 8, compact)
        made = []
        while entry.paths:
            cursor = entry.yen_cursor
            before = len(spurs)
            table.replace_path(0, 8, entry.paths[0], compact)
            made.append((cursor, len(spurs) - before))
        assert [cursor for cursor, _ in made] == list(
            range(3, len(ranked) + 3)
        )
        for cursor, count in made:
            if cursor <= len(ranked):
                # Spurs off the last ranked path only: one per spur node.
                assert count <= len(ranked[cursor - 1]) - 1, cursor
            else:
                # The ranking is known to be exhausted: no search at all.
                assert count == 0, cursor

    def test_refresh_drops_every_enumeration(self, grid_graph):
        old = grid_graph.compact()
        table = RoutingTable(m=2)
        entries = self._filled(table, old)
        grid_graph.remove_channel(0, 1)
        new = grid_graph.compact()
        table.refresh(new)
        assert all(entry.yen is None for entry in entries)
        # The next replacement starts a new enumeration on the new snapshot.
        entry = table._entries[(0, 8)]
        table.replace_path(0, 8, entry.paths[0], new)
        assert entry.yen.topology is new

    @pytest.mark.parametrize("batch", ("close", "open", "empty"))
    def test_apply_events_drops_every_enumeration(self, grid_graph, batch):
        from repro.network.dynamics import ChannelEvent, ChannelEventType

        old = grid_graph.compact()
        table = RoutingTable(m=2)
        entries = self._filled(table, old)
        if batch == "close":
            grid_graph.remove_channel(4, 5)
            events = [ChannelEvent(0.0, ChannelEventType.CLOSE, 4, 5)]
            new = grid_graph.compact()
        elif batch == "open":
            grid_graph.add_channel(1, 3, 10.0, 10.0)
            events = [
                ChannelEvent(0.0, ChannelEventType.OPEN, 1, 3, 10.0, 10.0)
            ]
            new = grid_graph.compact()
        else:
            events = []
            new = old.fork()  # a new snapshot of the same topology
        assert new is not old
        table.apply_events(events, new)
        assert all(entry.yen is None for entry in entries)
        assert all(
            layer.topology is new for layer in table._source_layers.values()
        )
