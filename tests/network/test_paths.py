"""Unit tests for BFS / Yen / edge-disjoint path algorithms."""

import pytest

from repro.core.maxflow import find_elephant_paths
from repro.network.compact import CompactTopology
from repro.network.graph import ChannelGraph
from repro.network.paths import (
    bfs_distances,
    bfs_shortest_path,
    bfs_tree_parents,
    cheapest_path,
    edge_disjoint_shortest_paths,
    is_simple_path,
    path_edges,
    yen_cheapest_paths,
    yen_k_shortest_paths,
)
from repro.network.view import NetworkView


@pytest.fixture
def grid_adj(grid_graph):
    return grid_graph.adjacency()


class TestBfs:
    def test_trivial_path(self, grid_adj):
        assert bfs_shortest_path(grid_adj, 0, 0) == [0]

    def test_shortest_length(self, grid_adj):
        path = bfs_shortest_path(grid_adj, 0, 8)
        assert path is not None
        assert len(path) == 5  # 4 hops across a 3x3 grid
        assert path[0] == 0 and path[-1] == 8

    def test_consecutive_hops_adjacent(self, grid_adj):
        path = bfs_shortest_path(grid_adj, 0, 8)
        for u, v in path_edges(path):
            assert v in grid_adj[u]

    def test_unreachable(self):
        adj = {0: [1], 1: [0], 2: []}
        assert bfs_shortest_path(adj, 0, 2) is None

    def test_unknown_node(self, grid_adj):
        assert bfs_shortest_path(grid_adj, 0, 99) is None

    def test_edge_predicate_respected(self, grid_adj):
        # Forbid everything out of node 1 and node 3: 0 is isolated.
        def edge_ok(u, v):
            return u not in (0,) or v not in (1, 3)

        assert bfs_shortest_path(grid_adj, 0, 8, edge_ok=edge_ok) is None

    def test_blocked_nodes(self, grid_adj):
        path = bfs_shortest_path(grid_adj, 0, 2, blocked_nodes={1})
        assert path is not None
        assert 1 not in path

    def test_distances(self, grid_adj):
        dist = bfs_distances(grid_adj, 0)
        assert dist[0] == 0
        assert dist[4] == 2
        assert dist[8] == 4

    def test_tree_parents_cover_component(self, grid_adj):
        parents = bfs_tree_parents(grid_adj, 4)
        assert set(parents) == set(grid_adj)
        assert parents[4] == 4


class TestYen:
    def test_first_path_is_shortest(self, grid_adj):
        paths = yen_k_shortest_paths(grid_adj, 0, 8, 3)
        assert len(paths[0]) == 5

    def test_paths_unique_and_simple(self, grid_adj):
        paths = yen_k_shortest_paths(grid_adj, 0, 8, 6)
        assert len({tuple(p) for p in paths}) == len(paths)
        assert all(is_simple_path(p) for p in paths)

    def test_nondecreasing_lengths(self, grid_adj):
        paths = yen_k_shortest_paths(grid_adj, 0, 8, 6)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_k_zero(self, grid_adj):
        assert yen_k_shortest_paths(grid_adj, 0, 8, 0) == []

    def test_no_path(self):
        adj = {0: [], 1: []}
        assert yen_k_shortest_paths(adj, 0, 1, 3) == []

    def test_exhausts_small_graph(self):
        # A triangle has exactly 2 simple paths between any pair.
        adj = {0: [1, 2], 1: [0, 2], 2: [0, 1]}
        paths = yen_k_shortest_paths(adj, 0, 2, 10)
        assert len(paths) == 2

    def test_grid_six_shortest_exist(self, grid_adj):
        # A 3x3 grid has 6 monotone 4-hop paths from corner to corner.
        paths = yen_k_shortest_paths(grid_adj, 0, 8, 6)
        assert len(paths) == 6
        assert all(len(p) == 5 for p in paths)

    def test_deterministic(self, grid_adj):
        first = yen_k_shortest_paths(grid_adj, 0, 8, 5)
        second = yen_k_shortest_paths(grid_adj, 0, 8, 5)
        assert first == second


class TestEdgeDisjoint:
    def test_disjointness(self, grid_adj):
        paths = edge_disjoint_shortest_paths(grid_adj, 0, 8, 3)
        used = set()
        for path in paths:
            for edge in path_edges(path):
                assert edge not in used
                used.add(edge)

    def test_grid_corner_has_two(self, grid_adj):
        # Corner degree is 2, so at most 2 edge-disjoint paths exist.
        paths = edge_disjoint_shortest_paths(grid_adj, 0, 8, 4)
        assert len(paths) == 2

    def test_zero_k(self, grid_adj):
        assert edge_disjoint_shortest_paths(grid_adj, 0, 8, 0) == []

    def test_first_is_shortest(self, grid_adj):
        paths = edge_disjoint_shortest_paths(grid_adj, 0, 8, 2)
        assert len(paths[0]) == 5


class TestYenDeterminism:
    """Pin the tie-break contract before/after the fast-path rewrite."""

    def test_stable_across_repeated_runs(self, grid_adj):
        runs = [yen_k_shortest_paths(grid_adj, 0, 8, 6) for _ in range(5)]
        assert all(run == runs[0] for run in runs)

    def test_equal_length_candidates_pop_in_repr_order(self):
        # A 4-cycle: the two 0->2 paths have equal length; after the BFS
        # first path, the second must be selected by repr tie-break.
        adj = {0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [2, 0]}
        paths = yen_k_shortest_paths(adj, 0, 2, 2)
        assert len(paths) == 2
        assert sorted(len(p) for p in paths) == [3, 3]
        assert paths[0] != paths[1]

    def test_mixed_node_types_do_not_crash_tie_break(self):
        adj = {
            0: [1, "x"],
            1: [0, 2],
            "x": [0, 2],
            2: [1, "x"],
        }
        paths = yen_k_shortest_paths(adj, 0, 2, 4)
        assert len(paths) == 2
        assert all(p[0] == 0 and p[-1] == 2 for p in paths)
        assert paths == yen_k_shortest_paths(adj, 0, 2, 4)

    def test_insertion_order_of_adjacency_does_not_leak_into_selection(self):
        # Same graph, different key order: the heap tie-break is by node
        # repr, so the *set* of returned paths is identical and the
        # ordering of the equal-length tail is identical.
        adj_a = {0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [2, 0]}
        adj_b = {3: [2, 0], 2: [1, 3], 1: [0, 2], 0: [1, 3]}
        paths_a = yen_k_shortest_paths(adj_a, 0, 2, 4)
        paths_b = yen_k_shortest_paths(adj_b, 0, 2, 4)
        assert {tuple(p) for p in paths_a} == {tuple(p) for p in paths_b}
        assert paths_a[1:] == paths_b[1:]

    def test_first_seed_matches_unseeded_result(self, grid_adj):
        unseeded = yen_k_shortest_paths(grid_adj, 0, 8, 6)
        seeded = yen_k_shortest_paths(
            grid_adj, 0, 8, 6, first=list(unseeded[0])
        )
        assert seeded == unseeded

    def test_bogus_first_seed_is_ignored(self, grid_adj):
        # A "first" that is not a path in the graph must not poison Yen.
        bogus = [0, 8]
        assert yen_k_shortest_paths(
            grid_adj, 0, 8, 3, first=bogus
        ) == yen_k_shortest_paths(grid_adj, 0, 8, 3)


class TestEdgeDisjointEdgeOk:
    def test_edge_ok_is_respected(self, grid_adj):
        banned = {(0, 1), (1, 0)}

        def edge_ok(u, v):
            return (u, v) not in banned

        paths = edge_disjoint_shortest_paths(grid_adj, 0, 8, 4, edge_ok=edge_ok)
        assert paths  # 0-3-... survives
        for path in paths:
            for hop in path_edges(path):
                assert hop not in banned

    def test_edge_ok_can_exhaust_all_paths(self, grid_adj):
        def edge_ok(u, v):
            return u != 0 and v != 0  # seal the source

        assert edge_disjoint_shortest_paths(
            grid_adj, 0, 8, 4, edge_ok=edge_ok
        ) == []

    def test_disjointness_still_holds_under_edge_ok(self, grid_adj):
        def edge_ok(u, v):
            return (u, v) != (4, 8)

        paths = edge_disjoint_shortest_paths(grid_adj, 0, 8, 4, edge_ok=edge_ok)
        used = set()
        for path in paths:
            for hop in path_edges(path):
                assert hop not in used
                used.add(hop)


#: Every public path function, as ``(topology, source, target) ->
#: result``, with its answer for an unreachable endpoint.
SEARCHES = {
    "bfs_shortest_path": (
        lambda t, s, d: bfs_shortest_path(t, s, d),
        None,
    ),
    "bfs_distances": (lambda t, s, d: bfs_distances(t, s), {}),
    "bfs_tree_parents": (lambda t, s, d: bfs_tree_parents(t, s), {}),
    "yen_k_shortest_paths": (
        lambda t, s, d: yen_k_shortest_paths(t, s, d, 3),
        [],
    ),
    "edge_disjoint_shortest_paths": (
        lambda t, s, d: edge_disjoint_shortest_paths(t, s, d, 3),
        [],
    ),
    "cheapest_path": (lambda t, s, d: cheapest_path(t, s, d, 1.0), None),
    "yen_cheapest_paths": (
        lambda t, s, d: yen_cheapest_paths(t, s, d, 1.0, 3),
        [],
    ),
    "find_elephant_paths": (
        lambda t, s, d: find_elephant_paths(
            t, NetworkView(ChannelGraph()), s, d, 1.0, 3
        ).paths,
        [],
    ),
}

#: The bad endpoint as source, as target, or as both (the two
#: single-source sweeps read no target).
ENDPOINT_CASES = [
    pytest.param(name, role, id=f"{name}-{role}")
    for name in SEARCHES
    for role in ("source", "target", "both")
    if not (role == "target" and name in ("bfs_distances", "bfs_tree_parents"))
]

#: Node 3 is dangling: a neighbor value of 2, not a key.
DANGLING_ADJ = {0: [1, 2], 1: [0], 2: [0, 3]}


def _endpoints(role: str, bad) -> tuple:
    return {"source": (bad, 0), "target": (0, bad), "both": (bad, bad)}[role]


class TestDanglingEndpointContract:
    """An endpoint that is not a key of the input is unreachable,
    uniformly across every path algorithm and both input forms.

    A snapshot interns a mapping's dangling neighbor as a key without
    outgoing edges, so on the snapshot it is an ordinary endpoint."""

    @pytest.mark.parametrize("form", ["mapping", "snapshot"])
    @pytest.mark.parametrize(("name", "role"), ENDPOINT_CASES)
    def test_unknown_endpoint_is_unreachable(self, form, name, role):
        topology = DANGLING_ADJ
        if form == "snapshot":
            topology = CompactTopology.from_adjacency(DANGLING_ADJ)
        search, unreachable = SEARCHES[name]
        assert search(topology, *_endpoints(role, 99)) == unreachable

    @pytest.mark.parametrize(("name", "role"), ENDPOINT_CASES)
    def test_dangling_endpoint_of_a_mapping_is_unreachable(self, name, role):
        search, unreachable = SEARCHES[name]
        assert search(DANGLING_ADJ, *_endpoints(role, 3)) == unreachable

    @pytest.mark.parametrize(
        ("name", "role"),
        # A known node as both endpoints is a self-payment, which
        # Algorithm 1 does not plan (it has no hop to probe).
        [case for case in ENDPOINT_CASES if case.values[1] != "both"],
    )
    def test_snapshot_keys_its_dangling_neighbors(self, name, role):
        search, _ = SEARCHES[name]
        snapshot = CompactTopology.from_adjacency(DANGLING_ADJ)
        keyed = {**DANGLING_ADJ, 3: []}
        endpoints = _endpoints(role, 3)
        assert search(snapshot, *endpoints) == search(keyed, *endpoints)

    def test_snapshot_reaches_a_dangling_target(self):
        snapshot = CompactTopology.from_adjacency(DANGLING_ADJ)
        assert 3 in snapshot and 3 not in DANGLING_ADJ
        assert bfs_shortest_path(snapshot, 0, 3) == [0, 2, 3]
        assert bfs_distances(snapshot, 3) == {3: 0}

    def test_yen_dangling_target(self):
        adj = {0: [1]}
        assert yen_k_shortest_paths(adj, 0, 1, 3) == []

    def test_edge_disjoint_dangling_target(self):
        adj = {0: [1]}
        assert edge_disjoint_shortest_paths(adj, 0, 1, 2) == []

    def test_bfs_dangling_target(self):
        assert bfs_shortest_path({0: [1]}, 0, 1) is None
