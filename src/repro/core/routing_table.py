"""The mice routing table (§3.3, "Path finding").

Each node keeps a table of precomputed paths per *receiver*.  On first
contact with a receiver the node computes the top-``m`` shortest paths with
Yen's algorithm on its local topology and caches them; recurring payments
(the vast majority, §2.2) become pure table lookups.  The paper describes
three maintenance behaviours; the table models the first two:

* **refresh** — recompute every entry when the gossiped topology changes
  (each entry's first path is read off the sender's BFS layer at once,
  and the Yen run that ranks the rest waits for the entry's first read;
  see :class:`TableEntry`);
* **replacement** — when a payment finds a cached path dead (zero
  effective capacity or broken connectivity), replace it with the *next*
  shortest path.  Each entry keeps its Yen enumeration
  (:class:`~repro.network.paths.YenState`), so the next path costs one
  more Yen iteration, not a re-run of every earlier one; the topology
  hooks below drop these enumerations;
* **timeout** — the paper evicts entries left unused for a while, to
  bound each node's table.  This is not modelled: a run's table holds at
  most one entry per sender–receiver pair of its workload, which fits in
  memory, the paper gives no timeout value to reproduce, and an evicted
  entry would only be recomputed on its next use.

Our library manages one logical network, so the table is keyed by
``(sender, receiver)`` — each sender's slice is exactly the per-node table
of the paper.

Beyond the per-pair entries, the table keeps one *structural BFS layer*
per sender: the BFS spanning tree rooted at the sender, which yields the
first (fewest-hop) path to **every** receiver.  A miss for a new receiver
of a known sender then skips Yen's initial BFS, and the tree is shared
across all ``(sender, *)`` pairs until the topology changes.  A tree is
valid only for the topology object it was built on: the routers pass a
:class:`~repro.network.compact.CompactTopology`, which never changes
after it is built, and a new topology is a new object, so an ``is``
check is the whole validation (:meth:`refresh` also drops the trees
explicitly).

Under churn the table supports **selective** maintenance
(:meth:`RoutingTable.apply_events`): given the batch of channel events a
gossip tick delivered, only the BFS layers an event can actually have
touched are dropped (a close that the tree does not use cannot shorten
or break any tree path; an open whose endpoints sit on neighboring BFS
levels cannot change any distance), and only the entries whose cached
paths cross a closed channel — or whose sender's layer was dropped —
are recomputed, again with their Yen runs deferred.  Everything else
survives, re-stamped against the new topology snapshot.  The precise
survival rules are tabulated in ``docs/ARCHITECTURE.md`` ("Incremental
topology maintenance").
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.network.channel import NodeId
from repro.network.dynamics import ChannelEvent, ChannelEventType
from repro.network.paths import (
    Adjacency,
    YenState,
    bfs_tree_parents,
    yen_k_shortest_paths,
)

Path = list[NodeId]


def _node_depth(parents: Mapping[NodeId, NodeId], node: NodeId) -> int | None:
    """Depth of ``node`` in a BFS tree, or ``None`` when outside it.

    Walks the parent chain up to the root (which maps to itself, at
    depth 0): O(depth), so the open-event survival rule of
    :meth:`RoutingTable.apply_events` reads two endpoints without
    building a depth map of the whole tree.
    """
    parent = parents.get(node)
    if parent is None:
        return None
    depth = 0
    while parent != node:
        depth += 1
        node = parent
        parent = parents[node]
    return depth


@dataclass
class _SourceLayer:
    """One cached structural BFS layer: the topology and its spanning tree."""

    topology: Adjacency
    parents: Mapping[NodeId, NodeId]


class _Deferred(NamedTuple):
    """A re-ranking whose Yen run waits for the entry's first read."""

    topology: Adjacency
    sender: NodeId
    receiver: NodeId
    k: int
    first: Path


class TableEntry:
    """Cached paths for one (sender, receiver) pair.

    ``paths`` are the ranked paths and ``yen_cursor`` counts how many
    Yen paths have been consumed for this pair, including replaced
    ones, so that replacement continues where the ranking left off.
    Both may be *deferred*: :meth:`RoutingTable.refresh` and
    :meth:`RoutingTable.apply_events` re-rank a stale entry by reading
    its first path off the sender's BFS layer at once and recording the
    Yen run that ranks the rest on that batch's topology.  The run
    happens when ``paths`` or ``yen_cursor`` is first read or written,
    with exactly the inputs it would have had at batch time, so a
    deferred entry reads the same as one ranked at once.

    ``yen`` is the pair's Yen enumeration, which
    :meth:`RoutingTable.replace_path` resumes for the next ranked path.
    A lookup miss fills it to ``m`` paths; ``refresh`` and
    ``apply_events`` reset it to ``None`` (the next replacement then
    starts a new one), so it is dropped with the topology it was
    computed on.
    """

    __slots__ = ("_paths", "_yen_cursor", "hits", "misses", "yen", "_deferred")

    def __init__(
        self,
        paths: list[Path],
        yen_cursor: int = 0,
        hits: int = 0,
        misses: int = 0,
        yen: YenState | None = None,
    ) -> None:
        self._paths = paths
        self._yen_cursor = yen_cursor
        self.hits = hits
        self.misses = misses
        self.yen = yen
        self._deferred: _Deferred | None = None

    def _rank(self) -> None:
        """Run the deferred Yen run, if any."""
        deferred = self._deferred
        if deferred is None:
            return
        self._deferred = None
        paths = yen_k_shortest_paths(
            deferred.topology,
            deferred.sender,
            deferred.receiver,
            deferred.k,
            first=deferred.first,
        )
        self._paths = paths
        self._yen_cursor = len(paths)

    @property
    def paths(self) -> list[Path]:
        self._rank()
        return self._paths

    @paths.setter
    def paths(self, paths: list[Path]) -> None:
        self._rank()
        self._paths = paths

    @property
    def yen_cursor(self) -> int:
        self._rank()
        return self._yen_cursor

    @yen_cursor.setter
    def yen_cursor(self, cursor: int) -> None:
        self._rank()
        self._yen_cursor = cursor


@dataclass
class RoutingTable:
    """Per-(sender, receiver) cache of top-``m`` shortest paths."""

    m: int = 4
    _entries: dict[tuple[NodeId, NodeId], TableEntry] = field(default_factory=dict)
    #: sender -> :class:`_SourceLayer` (topology object, BFS
    #: spanning-tree parents).  The topology reference pins
    #: the object alive so identity checks are sound; the cache is
    #: bounded by MAX_SOURCE_LAYERS (oldest evicted).
    _source_layers: dict[NodeId, _SourceLayer] = field(
        default_factory=dict, repr=False
    )

    #: Upper bound on cached per-source BFS trees (each is O(V)).
    MAX_SOURCE_LAYERS = 128

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"m must be non-negative, got {self.m}")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pair: tuple[NodeId, NodeId]) -> bool:
        return pair in self._entries

    # ------------------------------------------------- structural BFS layer

    def _source_tree(
        self, sender: NodeId, topology: Adjacency
    ) -> Mapping[NodeId, NodeId]:
        """BFS parent pointers rooted at ``sender`` (cached per source)."""
        cached = self._source_layers.get(sender)
        if cached is not None and cached.topology is topology:
            return cached.parents
        parents = bfs_tree_parents(topology, sender)
        self._source_layers[sender] = _SourceLayer(topology, parents)
        while len(self._source_layers) > self.MAX_SOURCE_LAYERS:
            oldest = next(iter(self._source_layers))
            del self._source_layers[oldest]
        return parents

    def _first_path(
        self, sender: NodeId, receiver: NodeId, topology: Adjacency
    ) -> Path | None:
        """Fewest-hop path read off the cached source tree, or ``None``.

        BFS assigns each node's parent at first discovery, so the tree
        path is exactly what ``bfs_shortest_path`` would return.
        """
        parents = self._source_tree(sender, topology)
        if receiver not in parents:
            return None
        path = [receiver]
        while path[-1] != sender:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def invalidate_structural_cache(self) -> None:
        """Drop every cached per-source BFS tree."""
        self._source_layers.clear()

    def _ranked_paths(
        self,
        sender: NodeId,
        receiver: NodeId,
        topology: Adjacency,
        k: int,
        entry: TableEntry | None = None,
    ) -> list[Path]:
        """Top-``k`` Yen paths, seeded by the cached source tree.

        With ``entry`` the enumeration resumes from, and is kept in,
        ``entry.yen``.  It starts over when the tree now gives another
        first path, since Yen ranks ties from its first path: a layer
        that :meth:`apply_events` re-stamped can differ from the one a
        fresh BFS builds after it is evicted.
        """
        if k <= 0:
            return []
        first = self._first_path(sender, receiver, topology)
        if first is None:
            return []
        state = None
        if entry is not None:
            state = entry.yen
            if state is None or state.first != first:
                state = entry.yen = YenState()
        return yen_k_shortest_paths(
            topology, sender, receiver, k, first=first, state=state
        )

    # -------------------------------------------------------------- lookups

    def lookup(
        self,
        sender: NodeId,
        receiver: NodeId,
        topology: Adjacency,
    ) -> TableEntry:
        """Fetch (or compute on first use) the entry for a pair."""
        pair = (sender, receiver)
        entry = self._entries.get(pair)
        if entry is None:
            entry = TableEntry(paths=[])
            entry.paths = self._ranked_paths(
                sender, receiver, topology, self.m, entry
            )
            entry.yen_cursor = len(entry.paths)
            entry.misses += 1
            self._entries[pair] = entry
        else:
            entry.hits += 1
        return entry

    def replace_path(
        self,
        sender: NodeId,
        receiver: NodeId,
        dead_path: Path,
        topology: Adjacency,
    ) -> Path | None:
        """Swap a dead path for the next-ranked Yen path (§3.3).

        Returns the replacement, or ``None`` when the topology has no
        further distinct path (the dead one is then simply dropped).
        The entry's Yen enumeration is resumed for one more path, so a
        replacement runs at most one Yen iteration, and none once the
        pair's paths are exhausted.
        """
        pair = (sender, receiver)
        entry = self._entries.get(pair)
        if entry is None or dead_path not in entry.paths:
            return None
        ranked = self._ranked_paths(
            sender, receiver, topology, entry.yen_cursor + 1, entry
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

    def _rerank(
        self,
        entry: TableEntry,
        sender: NodeId,
        receiver: NodeId,
        topology: Adjacency,
    ) -> None:
        """Re-rank ``entry`` on ``topology``, deferring its Yen run.

        The first path is read off the sender's layer now, so the layer
        cache (what is built, its insertion order, what is evicted)
        changes exactly as an immediate re-ranking would change it.
        The Yen run that ranks the rest waits in the entry
        (:class:`TableEntry`) and replaces any run still waiting there,
        whose result nothing could have read.
        """
        entry.yen = None
        first = None
        if self.m > 0:
            first = self._first_path(sender, receiver, topology)
        if first is None:
            entry._deferred = None
            entry._paths = []
            entry._yen_cursor = 0
        else:
            entry._deferred = _Deferred(topology, sender, receiver, self.m, first)

    def refresh(self, topology: Adjacency) -> None:
        """Re-rank every entry against an updated topology (§3.3).

        Every entry's Yen enumeration is dropped: it belongs to the old
        topology.  Each entry's Yen run is deferred to its first read
        (see :meth:`_rerank`).
        """
        self.invalidate_structural_cache()
        for (sender, receiver), entry in list(self._entries.items()):
            self._rerank(entry, sender, receiver, topology)

    def _layer_touched(
        self,
        layer: _SourceLayer,
        closes: list[tuple[NodeId, NodeId]],
        opens: list[tuple[NodeId, NodeId]],
    ) -> bool:
        """Whether an event batch can have changed this layer's tree.

        A close touches the layer only when the spanning tree *uses*
        the closed channel (removing an unused edge cannot shorten any
        distance, so every tree path stays valid and shortest).  An
        open touches it only when the new channel's endpoints sit more
        than one BFS level apart — or one endpoint is unreachable while
        the other is not — since otherwise no distance from the root
        can change.
        """
        parents = layer.parents
        for a, b in closes:
            if parents.get(a) == b or parents.get(b) == a:
                return True
        for a, b in opens:
            depth_a = _node_depth(parents, a)
            depth_b = _node_depth(parents, b)
            if depth_a is None and depth_b is None:
                continue  # both outside the root's component
            if depth_a is None or depth_b is None:
                return True  # the open connects a new region
            if abs(depth_a - depth_b) > 1:
                return True
        return False

    def apply_events(
        self, events: "Sequence[ChannelEvent]", topology: Adjacency
    ) -> tuple[int, int]:
        """Selective refresh from a batch of gossiped channel events.

        The incremental counterpart of :meth:`refresh`: instead of
        recomputing everything, drop only the source layers the batch
        can have touched (see :meth:`_layer_touched`) and recompute only
        the entries whose sender's layer was dropped, whose cached paths
        cross a closed channel, or — when the batch contains opens —
        whose sender has no cached layer to prove the open harmless.
        Surviving layers are re-stamped against ``topology`` so they
        keep validating; surviving entries keep their paths.  Those
        paths remain *valid*, and each entry's rank-1 path remains a
        true fewest-hop path (the depth rule guarantees single-source
        distances are unchanged); lower-ranked backup paths, however,
        may become strictly suboptimal after a "harmless" open (a new
        channel can create shorter rank>=2 simple paths without moving
        any BFS distance) — the documented approximation of the
        incremental contract, covered at run time by the paper's
        trial-and-error replacement and by the next full refresh.

        A recomputed entry's Yen run is deferred to its first read (see
        :meth:`_rerank`).  A surviving entry whose run is still deferred
        from an earlier batch runs it now, on that batch's topology, and
        an entry recomputed again replaces its deferred run; so no entry
        keeps a superseded snapshot alive.  Every entry's Yen
        enumeration is dropped, as in :meth:`refresh`, for the same
        reason; a surviving entry's next replacement starts a new one on
        ``topology``.

        Returns ``(layers_dropped, entries_recomputed)`` for tests and
        diagnostics.
        """
        closes = [
            (event.a, event.b)
            for event in events
            if event.kind is ChannelEventType.CLOSE
        ]
        opens = [
            (event.a, event.b)
            for event in events
            if event.kind is ChannelEventType.OPEN
        ]
        dropped: set[NodeId] = set()
        for sender, layer in list(self._source_layers.items()):
            if self._layer_touched(layer, closes, opens):
                del self._source_layers[sender]
                dropped.add(sender)
            else:
                layer.topology = topology
        closed_channels = {frozenset((a, b)) for a, b in closes}
        # Snapshot the layerless senders *before* recomputing anything:
        # a recompute rebuilds its sender's layer as a side effect
        # (through _source_tree), which must not let that sender's
        # remaining entries dodge the conservative open rule.
        layerless = {
            sender
            for sender, _receiver in self._entries
            if sender not in self._source_layers
        }
        recomputed = 0
        for (sender, receiver), entry in list(self._entries.items()):
            stale = sender in dropped
            if not stale and opens and sender in layerless:
                stale = True
            if not stale and closed_channels:
                # Reading the paths runs a deferred ranking on its own
                # batch's topology, as if it had run then.
                stale = any(
                    frozenset((u, v)) in closed_channels
                    for path in entry.paths
                    for u, v in zip(path, path[1:])
                )
            if stale:
                self._rerank(entry, sender, receiver, topology)
                recomputed += 1
            else:
                entry.yen = None
                entry._rank()
        return len(dropped), recomputed

    @property
    def hit_ratio(self) -> float:
        hits = sum(entry.hits for entry in self._entries.values())
        misses = sum(entry.misses for entry in self._entries.values())
        total = hits + misses
        return hits / total if total else 0.0
