"""The ``bfs_tree_parents`` view reads like the dict loop it replaced.

:func:`~repro.network.paths.bfs_tree_parents` returns a
:class:`~repro.network.compact.TreeParents` view over the two arrays of
:meth:`CompactTopology.bfs_tree` (parent per dense index, discovery
order).  Its mapping contract is checked against the dict loop kept in
``tests/bfs_reference.py``: ``get``, ``[]`` (``KeyError`` for an
unreached or unknown node), ``in``, ``len``, iteration and ``items()``
in discovery order, ``reversed`` (of the view and of its items), the
keys and values views, and ``==`` both ways.  Graphs sit just below
``VECTOR_SWEEP_MIN_NODES`` and at it, so the serial and the vectorized
kernel both build the arrays; each carries a second component and a
lone node, so some nodes are unreached.
"""

from __future__ import annotations

import random

import bfs_reference as reference
import pytest

from repro.network.compact import CompactTopology, TreeParents
from repro.network.paths import bfs_tree_parents
from repro.network.topology import barabasi_albert_edges

THRESHOLD = CompactTopology.VECTOR_SWEEP_MIN_NODES

#: Ids that no graph below interns.
UNKNOWN = ("nowhere", -1, None, 10**9)


def _wheel(n_nodes: int) -> dict:
    """Hub 0 on a ring, plus an island pair and a lone node: ``n_nodes``."""
    rim = n_nodes - 4
    adjacency = {0: list(range(1, rim + 1))}
    for i in range(1, rim + 1):
        adjacency[i] = [0, (i - 2) % rim + 1, i % rim + 1]
    adjacency["island-a"] = ["island-b"]
    adjacency["island-b"] = ["island-a"]
    adjacency["lone"] = []
    return adjacency


def _ba(n_nodes: int) -> dict:
    """A BA graph with shuffled rows, plus the same detached part."""
    rng = random.Random(n_nodes)
    adjacency: dict = {}
    for u, v in barabasi_albert_edges(n_nodes - 3, 2, rng):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for row in adjacency.values():
        rng.shuffle(row)
    adjacency["island-a"] = ["island-b"]
    adjacency["island-b"] = ["island-a"]
    adjacency["lone"] = []
    return adjacency


@pytest.fixture(
    params=[
        (shape, n_nodes)
        for shape in (_wheel, _ba)
        for n_nodes in (THRESHOLD - 1, THRESHOLD)
    ],
    ids=lambda param: f"{param[0].__name__[1:]}-{param[1]}",
)
def graph(request, monkeypatch) -> tuple[dict, CompactTopology, list[str]]:
    """``(adjacency, snapshot, kernels entered)`` of one test graph."""
    shape, n_nodes = request.param
    adjacency = shape(n_nodes)
    snapshot = CompactTopology.from_adjacency(adjacency)
    assert snapshot.num_nodes == n_nodes
    entered: list[str] = []
    kernel = CompactTopology._bfs_tree_np

    def spy(self, src):
        entered.append("vector")
        return kernel(self, src)

    monkeypatch.setattr(CompactTopology, "_bfs_tree_np", spy)
    return adjacency, snapshot, entered


def _sources(adjacency: dict) -> list:
    nodes = list(adjacency)
    return [nodes[0], nodes[1], nodes[len(nodes) // 2], "island-a", "lone"]


def test_kernel_choice_follows_the_threshold(graph):
    adjacency, snapshot, entered = graph
    bfs_tree_parents(snapshot, _sources(adjacency)[0])
    assert entered == (["vector"] if snapshot.num_nodes >= THRESHOLD else [])


@pytest.mark.parametrize("form", ("snapshot", "mapping"))
def test_reads_match_the_dict_loop(graph, form):
    adjacency, snapshot, _ = graph
    topology = snapshot if form == "snapshot" else adjacency
    for source in _sources(adjacency):
        view = bfs_tree_parents(topology, source)
        expected = reference.bfs_tree_parents(adjacency, source)
        assert isinstance(view, TreeParents)
        assert len(view) == len(expected)
        for node in list(adjacency) + list(UNKNOWN):
            assert (node in view) == (node in expected), node
            assert view.get(node) == expected.get(node), node
            assert view.get(node, "absent") == expected.get(node, "absent")
            if node in expected:
                assert view[node] == expected[node]
            else:
                with pytest.raises(KeyError):
                    view[node]


def test_order_and_equality_match_the_dict_loop(graph):
    adjacency, snapshot, _ = graph
    for source in _sources(adjacency):
        view = bfs_tree_parents(snapshot, source)
        expected = reference.bfs_tree_parents(adjacency, source)
        assert list(view) == list(expected)
        assert list(view.items()) == list(expected.items())
        assert list(view.keys()) == list(expected.keys())
        assert list(view.values()) == list(expected.values())
        assert list(reversed(view)) == list(reversed(expected))
        assert list(reversed(view.items())) == list(
            reversed(expected.items())
        )
        assert view == expected and expected == view
        assert view == bfs_tree_parents(adjacency, source)
        assert view != {**expected, "extra": source}


def test_arrays_back_the_view(graph):
    adjacency, snapshot, _ = graph
    source = _sources(adjacency)[1]
    parent, order = snapshot.bfs_tree(snapshot.index_of(source))
    expected = reference.bfs_tree_parents(adjacency, source)
    nodes = snapshot.nodes
    assert [nodes[i] for i in order.tolist()] == list(expected)
    reached = set(order.tolist())
    for i, p in enumerate(parent.tolist()):
        if i in reached:
            assert nodes[p] == expected[nodes[i]]
        else:
            assert p == -1


def test_unknown_source_gives_an_empty_mapping(graph):
    adjacency, snapshot, _ = graph
    for topology in (snapshot, adjacency):
        for source in UNKNOWN:
            tree = bfs_tree_parents(topology, source)
            assert len(tree) == 0 and tree == {}
            assert list(tree.items()) == [] and source not in tree


def test_view_is_read_only(graph):
    adjacency, snapshot, _ = graph
    view = bfs_tree_parents(snapshot, _sources(adjacency)[0])
    with pytest.raises(TypeError):
        view["lone"] = 0  # type: ignore[index]
    with pytest.raises(AttributeError):
        view.pop("lone")  # type: ignore[attr-defined]
