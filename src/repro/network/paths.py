"""Path algorithms on the structural channel topology.

All routers in this library (Flash and the baselines) plan on the hop-count
metric over the *structural* adjacency — balances are unknown until probed.
Every search here walks a
:class:`~repro.network.compact.CompactTopology` (flat ``parent``/``seen``
arrays, slot-id edge sets, a candidate heap for Yen).  The functions take
that snapshot or a plain ``adjacency`` mapping (``node -> list of
neighbors``), which they intern once per call and then search with the
same kernels, plus an optional ``edge_ok(u, v)`` predicate that path
searches must respect (Flash uses it to encode the residual capacity
matrix of Algorithm 1).

Implemented from scratch:

* breadth-first shortest path (the subroutine of Algorithm 1);
* Yen's k-shortest loopless paths [36] (mice routing tables, §3.3),
  resumable through a :class:`YenState` so that one more path costs one
  more iteration;
* k edge-disjoint shortest paths (Spider's path choice [30]).

One endpoint rule holds for every function: an endpoint that is not a key
of the input is unreachable.  A snapshot's keys are its interned nodes; a
mapping's are its keys only, so a node that appears only as a neighbor
value cannot be an endpoint (it is still interned, as a node with no
outgoing edges, and searches may pass through to it).

Kernel selection lives behind the snapshot, not here.  From
:attr:`CompactTopology.BIDIRECTIONAL_MIN_NODES` nodes the single-pair
searches run bidirectional: paths stay fewest-hop, but ties between
equal-length paths may break differently than below the threshold.  The
full-sweep entry points (:func:`bfs_distances` without ``edge_ok``,
:func:`bfs_tree_parents` — the routing-table and embedding hot paths) run
one C-level BFS at every size, whose results are in BFS discovery order
exactly as a serial queue over the rows gives them.
:func:`bfs_distances` returns a dict;
:func:`bfs_tree_parents` returns a read-only
:class:`~repro.network.compact.TreeParents` view over the tree kernel's
two index arrays (parent per dense index, discovery order), which reads
like the ``node -> parent`` dict it replaces without building one.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Mapping, Sequence

from repro.network.channel import NodeId
from repro.network.compact import CompactTopology, TreeParents

Adjacency = Mapping[NodeId, Sequence[NodeId]]
EdgePredicate = Callable[[NodeId, NodeId], bool]
Path = list[NodeId]


def path_edges(path: Sequence[NodeId]) -> list[tuple[NodeId, NodeId]]:
    """Directed edges traversed by ``path``."""
    return list(zip(path, path[1:]))


def is_simple_path(path: Sequence[NodeId]) -> bool:
    """True if ``path`` visits no node twice."""
    return len(set(path)) == len(path)


def key_repr(key: tuple[NodeId, ...]) -> tuple[str, ...]:
    """Deterministic tie-break key that tolerates mixed node-id types."""
    return tuple(repr(node) for node in key)


def _interned(
    adjacency: Adjacency, *endpoints: NodeId
) -> tuple[CompactTopology, list[int]] | None:
    """The snapshot a search walks and its endpoints' dense indices.

    Every public search enters here.  A mapping is interned once per
    call; a snapshot passes through.  ``None`` when an endpoint is not a
    key of ``adjacency``, which makes it unreachable (see the module
    docstring).
    """
    for node in endpoints:
        if node not in adjacency:
            return None
    ct = CompactTopology.from_adjacency(adjacency)
    return ct, [ct.index_of(node) for node in endpoints]


def _slot_ok_from_edge_ok(ct: CompactTopology, edge_ok: EdgePredicate | None):
    """Lift a node-level edge predicate to a slot predicate."""
    if edge_ok is None:
        return None
    nodes = ct.nodes
    tail = ct.slot_tail
    head = ct.indices

    def slot_ok(slot: int) -> bool:
        return edge_ok(nodes[tail[slot]], nodes[head[slot]])

    return slot_ok


def _blocked_bytes(
    ct: CompactTopology, blocked_nodes: set[NodeId] | None
) -> bytearray | None:
    if not blocked_nodes:
        return None
    blocked = bytearray(ct.num_nodes)
    for node in blocked_nodes:
        i = ct.index_of(node)
        if i is not None:
            blocked[i] = 1
    return blocked


# ---------------------------------------------------------------------- BFS


def bfs_shortest_path(
    adjacency: Adjacency,
    source: NodeId,
    target: NodeId,
    edge_ok: EdgePredicate | None = None,
    blocked_nodes: set[NodeId] | None = None,
) -> Path | None:
    """Fewest-hop path from ``source`` to ``target``, or ``None``.

    ``edge_ok(u, v)`` (if given) must return True for an edge to be usable;
    ``blocked_nodes`` are never entered (``source`` is exempt).
    """
    interned = _interned(adjacency, source, target)
    if interned is None:
        return None
    ct, (src, dst) = interned
    blocked = _blocked_bytes(ct, blocked_nodes)
    if edge_ok is None:
        if blocked is None:
            idx_path = ct.shortest_path_plain(src, dst)
        else:
            idx_path = ct.shortest_path_banned(src, dst, set(), blocked)
    else:
        found = ct.shortest_path_idx(
            src, dst, slot_ok=_slot_ok_from_edge_ok(ct, edge_ok), blocked=blocked
        )
        idx_path = None if found is None else found[0]
    return None if idx_path is None else ct.path_nodes(idx_path)


def bfs_distances(
    adjacency: Adjacency,
    source: NodeId,
    edge_ok: EdgePredicate | None = None,
) -> dict[NodeId, int]:
    """Hop distance from ``source`` to every reachable node.

    The dict is in BFS discovery order, ``source`` first.
    """
    interned = _interned(adjacency, source)
    if interned is None:
        return {}
    ct, (src,) = interned
    nodes = ct.nodes
    dist_idx = ct.distances_idx(src, slot_ok=_slot_ok_from_edge_ok(ct, edge_ok))
    return {nodes[i]: d for i, d in dist_idx.items()}


def bfs_tree_parents(
    adjacency: Adjacency, source: NodeId
) -> Mapping[NodeId, NodeId]:
    """Parent pointers of a BFS spanning tree rooted at ``source``.

    Used by the routing table's BFS layers, the SpeedyMurmurs embedding
    and the edge betweenness of the jamming faults.  The root maps to
    itself, and iteration is in BFS discovery order, root first.  The
    result is a read-only :class:`~repro.network.compact.TreeParents`
    view over the snapshot kernel's index arrays; an unknown ``source``
    gives an empty mapping.
    """
    interned = _interned(adjacency, source)
    if interned is None:
        return {}
    ct, (src,) = interned
    return TreeParents(ct, *ct.bfs_tree(src))


# ---------------------------------------------------------------------- Yen


class YenState:
    """A :func:`yen_k_shortest_paths` enumeration, kept so it can resume.

    Create it empty and pass it as ``state``.  The call records its
    inputs (topology object, source, target, ``edge_ok``) and where its
    loop stopped: the accepted paths, the candidate heap and every
    candidate ever pushed.  A later call with the same inputs continues
    that loop, so asking for one more path costs one Yen iteration
    instead of all of them again.  Holding a state keeps its topology
    (and, for a mapping, the interned snapshot) alive.
    """

    __slots__ = (
        "topology",
        "source",
        "target",
        "edge_ok",
        "_ct",
        "_dst",
        "_base_ok",
        "_accepted",
        "_pushed",
        "_heap",
        "_exhausted",
    )

    def __init__(self) -> None:
        self._reset(None, None, None, None)

    def _reset(
        self,
        adjacency: Adjacency | None,
        source: NodeId | None,
        target: NodeId | None,
        edge_ok: EdgePredicate | None,
    ) -> None:
        """Record new inputs with no enumeration behind them yet."""
        self.topology = adjacency
        self.source = source
        self.target = target
        self.edge_ok = edge_ok
        self._ct: CompactTopology | None = None
        self._dst = -1
        self._base_ok = None
        self._accepted: list[tuple[int, ...]] = []
        self._pushed: set[tuple[int, ...]] = set()
        self._heap: list[tuple[int, tuple[str, ...], tuple[int, ...]]] = []
        self._exhausted = True

    def _matches(
        self,
        adjacency: Adjacency,
        source: NodeId,
        target: NodeId,
        edge_ok: EdgePredicate | None,
    ) -> bool:
        """Whether a call with these inputs resumes this enumeration."""
        return (
            self.topology is adjacency
            and self.source == source
            and self.target == target
            and self.edge_ok is edge_ok
        )

    @property
    def first(self) -> Path | None:
        """The path the enumeration started from (``None`` if it has none)."""
        if not self._accepted:
            return None
        return self._ct.path_nodes(self._accepted[0])

    def _start(
        self,
        adjacency: Adjacency,
        source: NodeId,
        target: NodeId,
        edge_ok: EdgePredicate | None,
        first: Path | None,
    ) -> None:
        """Reset to a new enumeration holding only its first path."""
        self._reset(adjacency, source, target, edge_ok)
        interned = _interned(adjacency, source, target)
        if interned is None:
            return
        ct, (src, dst) = interned
        base_ok = _slot_ok_from_edge_ok(ct, edge_ok)

        first_idx: list[int] | None = None
        if first is not None and first[0] == source and first[-1] == target:
            mapped = [ct.index_of(node) for node in first]
            if None not in mapped and ct.path_slots(mapped) is not None:
                first_idx = mapped  # type: ignore[assignment]
        if first_idx is None:
            if base_ok is None:
                first_idx = ct.shortest_path_plain(src, dst)
            else:
                found = ct.shortest_path_idx(src, dst, slot_ok=base_ok)
                first_idx = None if found is None else found[0]
        if first_idx is None:
            return
        self._ct = ct
        self._dst = dst
        self._base_ok = base_ok
        self._accepted = [tuple(first_idx)]
        self._pushed = {self._accepted[0]}
        self._exhausted = False


def yen_k_shortest_paths(
    adjacency: Adjacency,
    source: NodeId,
    target: NodeId,
    k: int,
    edge_ok: EdgePredicate | None = None,
    first: Path | None = None,
    state: YenState | None = None,
) -> list[Path]:
    """Yen's algorithm [36]: up to ``k`` loopless fewest-hop paths.

    Paths are returned in non-decreasing hop-count order.  Ties between
    equal-length candidates are broken deterministically by node sequence
    (``repr`` order, robust to mixed node-id types), so results are
    reproducible across runs.

    ``first`` optionally supplies an already-known fewest-hop path from
    ``source`` to ``target`` (e.g. read off a cached BFS tree); the
    initial BFS is then skipped.  The caller is responsible for ``first``
    really being a shortest path under ``edge_ok``.  Among equal-length
    paths, Yen ranks from its first path, so the hint can change the
    order of ties.

    ``state`` optionally keeps the enumeration in a :class:`YenState`.
    The call resumes it only when the topology is the same object,
    ``source`` and ``target`` are equal and ``edge_ok`` is the same
    object as in the call that filled it; ``first`` is then ignored,
    because the enumeration already holds its first path.  A larger
    ``k`` continues the loop, a smaller one returns a prefix.  Any other
    call starts over into ``state``.  The loop reads ``k`` only in its
    stop test and ties break by ``repr`` order, so a resumed call
    returns exactly what a call without ``state`` returns, provided
    that in between the topology was not changed in place, ``edge_ok``
    kept its answers and ``first`` is the hint the state was filled
    with.  Once the enumeration has no candidates left, resuming costs
    no search at all.
    """
    if k <= 0:
        return []
    if state is None:
        state = YenState()
    if not state._matches(adjacency, source, target, edge_ok):
        state._start(adjacency, source, target, edge_ok, first)
    accepted = state._accepted
    if not accepted:
        return []
    ct = state._ct
    dst = state._dst
    base_ok = state._base_ok
    pushed = state._pushed
    heap = state._heap
    n = ct.num_nodes

    reprs = ct.repr_keys
    tail = ct.slot_tail
    heads = ct.indices
    # Accepted and candidate paths are tuples of dense indices; removed
    # spur edges are ``u * n + v`` integer codes, so the spur BFS does one
    # int-set membership test per edge instead of hashing node tuples.
    while len(accepted) < k and not state._exhausted:
        prev_idx = accepted[-1]
        for i in range(len(prev_idx) - 1):
            root = prev_idx[: i + 1]
            removed: set[int] = set()
            for other_idx in accepted:
                if len(other_idx) > i + 1 and other_idx[: i + 1] == root:
                    removed.add(other_idx[i] * n + other_idx[i + 1])
            blocked = bytearray(n)
            for node in root[:-1]:
                blocked[node] = 1

            if base_ok is None:
                spur = ct.shortest_path_banned(root[i], dst, removed, blocked)
            else:
                def spur_ok(
                    slot: int, _removed=removed, _base=base_ok
                ) -> bool:
                    return (
                        tail[slot] * n + heads[slot] not in _removed
                        and _base(slot)
                    )

                found = ct.shortest_path_idx(
                    root[i], dst, slot_ok=spur_ok, blocked=blocked
                )
                spur = None if found is None else found[0]
            if spur is None:
                continue
            candidate = root[:-1] + tuple(spur)
            if candidate in pushed:
                continue
            # ``blocked`` already guarantees loop-freedom: the spur path
            # cannot revisit any root node other than the spur node itself.
            pushed.add(candidate)
            heapq.heappush(
                heap,
                (
                    len(candidate),
                    tuple(reprs[j] for j in candidate),
                    candidate,
                ),
            )
        if not heap:
            state._exhausted = True
            break
        accepted.append(heapq.heappop(heap)[2])

    nodes = ct.nodes
    return [[nodes[j] for j in idx_path] for idx_path in accepted[:k]]


# ------------------------------------------------------------ edge-disjoint


def edge_disjoint_shortest_paths(
    adjacency: Adjacency,
    source: NodeId,
    target: NodeId,
    k: int,
    edge_ok: EdgePredicate | None = None,
) -> list[Path]:
    """Up to ``k`` mutually edge-disjoint fewest-hop paths (greedy).

    This is the path choice of Spider [30]: repeatedly take the current
    shortest path and remove its (directed) edges.  Greedy edge-disjoint
    selection is not guaranteed maximal but matches the behaviour the paper
    ascribes to Spider, including the Fig 5(b) pathology.  With
    ``source == target`` the one trivial path is the answer, as for
    :func:`yen_k_shortest_paths`.
    """
    if k <= 0:
        return []
    interned = _interned(adjacency, source, target)
    if interned is None:
        return []
    ct, (src, dst) = interned
    if src == dst:
        # The trivial path uses no edge, so removing its edges would
        # leave it available to every later round.
        return [[source]]
    base_ok = _slot_ok_from_edge_ok(ct, edge_ok)
    n = ct.num_nodes
    tail = ct.slot_tail
    heads = ct.indices
    # Used directed edges as ``u * n + v`` integer codes (see Yen above).
    used: set[int] = set()

    nodes = ct.nodes
    paths: list[Path] = []
    for _ in range(k):
        if base_ok is None:
            idx_path = ct.shortest_path_banned(src, dst, used)
        else:
            def disjoint_ok(slot: int) -> bool:
                return tail[slot] * n + heads[slot] not in used and base_ok(
                    slot
                )

            found = ct.shortest_path_idx(src, dst, slot_ok=disjoint_ok)
            idx_path = None if found is None else found[0]
        if idx_path is None:
            break
        paths.append([nodes[j] for j in idx_path])
        used.update(
            u * n + v for u, v in zip(idx_path, idx_path[1:])
        )
    return paths
