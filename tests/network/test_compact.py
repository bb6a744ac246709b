"""Tests for the CSR compact topology and its fast-path equivalence.

The equivalence tests compare the kernels with the dict-walking loops of
``tests/bfs_reference.py``, which share no code with them.  A mapping
passed to a path function is interned into a snapshot first, so each
function is checked on both inputs.
"""

import random

import bfs_reference as reference
import pytest

from repro.network.compact import CompactTopology
from repro.network.paths import (
    bfs_distances,
    bfs_shortest_path,
    bfs_tree_parents,
    edge_disjoint_shortest_paths,
    yen_k_shortest_paths,
)
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    grid_topology,
    uniform_sampler,
)


@pytest.fixture
def grid_compact(grid_graph):
    return grid_graph.compact()


class TestConstruction:
    def test_from_graph_interns_all_nodes(self, grid_graph, grid_compact):
        assert sorted(grid_compact.nodes) == sorted(grid_graph.nodes)
        assert grid_compact.num_nodes == grid_graph.num_nodes()

    def test_slot_count_is_directed_edges(self, grid_graph, grid_compact):
        assert grid_compact.num_slots == 2 * grid_graph.num_channels()

    def test_csr_neighbors_match_adjacency(self, grid_graph, grid_compact):
        adjacency = grid_graph.adjacency()
        for node, neighbors in adjacency.items():
            assert list(grid_compact[node]) == neighbors

    def test_reverse_slot_involution(self, grid_compact):
        for slot in range(grid_compact.num_slots):
            rev = grid_compact.reverse_slot[slot]
            assert rev >= 0
            assert grid_compact.reverse_slot[rev] == slot
            assert grid_compact.slot_tail[rev] == grid_compact.indices[slot]

    def test_directed_mapping_has_missing_reverse(self):
        ct = CompactTopology.from_adjacency({0: [1], 1: []})
        assert ct.reverse_slot == [-1]
        assert not ct.is_symmetric

    def test_dangling_neighbor_is_interned(self):
        ct = CompactTopology.from_adjacency({0: [1]})
        assert ct.index_of(1) is not None
        assert list(ct[1]) == []

    def test_from_adjacency_is_idempotent(self, grid_compact):
        assert CompactTopology.from_adjacency(grid_compact) is grid_compact


class TestMappingProtocol:
    def test_len_iter_contains(self, grid_graph, grid_compact):
        assert len(grid_compact) == grid_graph.num_nodes()
        assert list(grid_compact) == list(grid_graph.adjacency())
        assert 0 in grid_compact
        assert 99 not in grid_compact

    def test_getitem_unknown_raises(self, grid_compact):
        with pytest.raises(KeyError):
            grid_compact[99]

    def test_works_as_adjacency_argument(self, grid_graph, grid_compact):
        adjacency = grid_graph.adjacency()
        for topology in (grid_compact, adjacency):
            assert list(bfs_distances(topology, 0).items()) == list(
                reference.bfs_distances(adjacency, 0).items()
            )
            assert list(bfs_tree_parents(topology, 4).items()) == list(
                reference.bfs_tree_parents(adjacency, 4).items()
            )


class TestGraphCache:
    def test_compact_is_cached(self, grid_graph):
        assert grid_graph.compact() is grid_graph.compact()

    def test_topology_change_invalidates(self, grid_graph):
        before = grid_graph.compact()
        grid_graph.add_channel(0, 8, 10.0, 10.0)
        after = grid_graph.compact()
        assert after is not before
        assert 8 in after[0]

    def test_remove_channel_invalidates(self, grid_graph):
        before = grid_graph.compact()
        grid_graph.remove_channel(0, 1)
        after = grid_graph.compact()
        assert after is not before
        assert 1 not in after[0]

    def test_balance_change_keeps_cache(self, grid_graph):
        before = grid_graph.compact()
        grid_graph.channel(0, 1).transfer(0, 1, 5.0)
        assert grid_graph.compact() is before

    def test_version_counter_moves_on_structure(self, grid_graph):
        version = grid_graph.topology_version
        grid_graph.add_node("new")
        assert grid_graph.topology_version == version + 1


class TestSmallGraphEquivalence:
    """Below the bidirectional threshold results are bit-identical to the
    reference loops, on the snapshot and on the mapping alike."""

    @staticmethod
    def _inputs(graph):
        return graph.adjacency(), (graph.compact(), graph.adjacency())

    def test_bfs_identical(self, grid_graph):
        adjacency, inputs = self._inputs(grid_graph)
        for topology in inputs:
            for target in range(9):
                assert bfs_shortest_path(topology, 0, target) == (
                    reference.bfs_shortest_path(adjacency, 0, target)
                )

    def test_bfs_blocked_identical(self, grid_graph):
        adjacency, inputs = self._inputs(grid_graph)
        for topology in inputs:
            assert bfs_shortest_path(
                topology, 0, 8, blocked_nodes={1, 4}
            ) == reference.bfs_shortest_path(
                adjacency, 0, 8, blocked_nodes={1, 4}
            )

    def test_bfs_edge_ok_identical(self, grid_graph):
        adjacency, inputs = self._inputs(grid_graph)

        def edge_ok(u, v):
            return (u, v) != (0, 1) and (u, v) != (3, 6)

        for topology in inputs:
            assert bfs_shortest_path(
                topology, 0, 8, edge_ok=edge_ok
            ) == reference.bfs_shortest_path(adjacency, 0, 8, edge_ok=edge_ok)
            assert list(bfs_distances(topology, 0, edge_ok).items()) == list(
                reference.bfs_distances(adjacency, 0, edge_ok).items()
            )

    def test_yen_identical(self, grid_graph):
        adjacency, inputs = self._inputs(grid_graph)
        for topology in inputs:
            assert yen_k_shortest_paths(topology, 0, 8, 6) == (
                reference.yen_k_shortest_paths(adjacency, 0, 8, 6)
            )

    def test_edge_disjoint_identical(self, grid_graph):
        adjacency, inputs = self._inputs(grid_graph)
        for topology in inputs:
            assert edge_disjoint_shortest_paths(topology, 0, 8, 3) == (
                reference.edge_disjoint_shortest_paths(adjacency, 0, 8, 3)
            )

    def test_mixed_node_types(self):
        graph = grid_topology(2, 2)
        graph.add_channel(0, "hub", 10.0, 10.0)
        graph.add_channel("hub", 3, 10.0, 10.0)
        adjacency, inputs = self._inputs(graph)
        for topology in inputs:
            assert bfs_shortest_path(topology, 0, 3) == (
                reference.bfs_shortest_path(adjacency, 0, 3)
            )
            assert yen_k_shortest_paths(topology, 0, 3, 4) == (
                reference.yen_k_shortest_paths(adjacency, 0, 3, 4)
            )


class TestLargeGraphFastPath:
    """Above the threshold the bidirectional kernels take over: paths may
    tie-break differently but must have identical lengths and be valid."""

    @pytest.fixture(scope="class")
    def big(self):
        rng = random.Random(11)
        edges = barabasi_albert_edges(300, 3, rng)
        graph = build_channel_graph(edges, uniform_sampler(50, 100), rng)
        return graph.adjacency(), graph.compact()

    def test_threshold_engaged(self, big):
        _, compact = big
        assert compact.num_nodes >= CompactTopology.BIDIRECTIONAL_MIN_NODES
        assert compact._use_bidirectional()

    def test_bfs_lengths_and_validity(self, big):
        adjacency, compact = big
        rng = random.Random(5)
        for _ in range(50):
            a, b = rng.randrange(300), rng.randrange(300)
            slow = reference.bfs_shortest_path(adjacency, a, b)
            fast = bfs_shortest_path(compact, a, b)
            assert (slow is None) == (fast is None)
            if fast is None:
                continue
            assert len(fast) == len(slow)
            assert fast[0] == a and fast[-1] == b
            assert all(v in adjacency[u] for u, v in zip(fast, fast[1:]))

    def test_bfs_deterministic(self, big):
        _, compact = big
        first = [bfs_shortest_path(compact, 0, t) for t in range(300)]
        second = [bfs_shortest_path(compact, 0, t) for t in range(300)]
        assert first == second

    def test_yen_lengths_unique_simple(self, big):
        adjacency, compact = big
        rng = random.Random(9)
        for _ in range(10):
            a, b = rng.randrange(300), rng.randrange(300)
            fast = yen_k_shortest_paths(compact, a, b, 4)
            slow = reference.yen_k_shortest_paths(adjacency, a, b, 4)
            assert [len(p) for p in fast] == [len(p) for p in slow]
            assert len({tuple(p) for p in fast}) == len(fast)
            for path in fast:
                assert len(set(path)) == len(path)
                assert all(
                    v in adjacency[u] for u, v in zip(path, path[1:])
                )

    def test_blocked_target_is_unreachable(self, big):
        # Regression: the bidirectional kernel used to seed its backward
        # frontier at a blocked target and find a path anyway.
        adjacency, compact = big
        assert bfs_shortest_path(compact, 0, 9, blocked_nodes={9}) is None
        assert bfs_shortest_path(adjacency, 0, 9, blocked_nodes={9}) is None
        assert (
            reference.bfs_shortest_path(adjacency, 0, 9, blocked_nodes={9})
            is None
        )

    def test_blocked_source_stays_exempt(self, big):
        adjacency, compact = big
        slow = reference.bfs_shortest_path(adjacency, 0, 9, blocked_nodes={0})
        fast = bfs_shortest_path(compact, 0, 9, blocked_nodes={0})
        assert slow is not None and fast is not None
        assert len(slow) == len(fast)

    def test_distances_match_mapping(self, big):
        adjacency, compact = big
        assert list(bfs_distances(compact, 17).items()) == list(
            reference.bfs_distances(adjacency, 17).items()
        )


class TestPerfbenchBackendCalls:
    """``perfbench/run.py`` still calls the old backend functions."""

    def test_perfbench_calls_still_work(self):
        from repro.network import compact

        assert compact.set_default_backend("python") == "python"
        assert compact.set_default_backend("numpy") == "numpy"
        assert compact.get_default_backend() == "python"
        assert compact.__all__ == ["CompactTopology"]

    def test_unknown_name_raises(self):
        from repro.network.compact import set_default_backend

        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            set_default_backend("cuda")
