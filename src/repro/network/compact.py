"""Compact integer-indexed topology: the fast-path routing substrate.

Every router in this library plans over the *structural* topology (who has
a channel with whom).  The mapping form — ``dict[NodeId, list[NodeId]]`` —
is convenient but slow: each BFS step hashes node objects, and Yen's
algorithm re-hashes entire path tuples for its candidate set.  At paper
scale (thousands of nodes, Figs 6–13 average five seeded runs each) those
hashes dominate wall-clock.

:class:`CompactTopology` interns node ids into dense integers and stores
the adjacency in CSR form (``indptr``/``indices`` flat arrays).  Each
*slot* — a position in ``indices`` — names one directed edge, giving the
path algorithms O(1) integer bookkeeping:

* BFS runs over flat ``parent``/``seen`` arrays instead of dicts, with an
  epoch-stamped scratch buffer so repeated searches (Yen's spur loop,
  Algorithm 1's augmenting loop) allocate nothing;
* Yen keys its candidate heap and removed-edge sets by slot ids;
* the Edmonds–Karp residual matrix of Algorithm 1 becomes one flat float
  list indexed by slot, with ``reverse_slot`` providing the O(1) reverse
  edge needed for flow cancellation.

A ``CompactTopology`` also implements the read-only ``Mapping`` protocol
(node -> neighbor tuple), so code that indexes by node id reads it like
an adjacency dict.  It is the only graph the path algorithms of
:mod:`repro.network.paths` walk: they intern a plain mapping into one
per call.

Instances are immutable snapshots.  :meth:`ChannelGraph.compact
<repro.network.graph.ChannelGraph.compact>` caches one per graph;
when the graph's topology version counter moves (channel opened or
closed) it derives the next snapshot **incrementally** via
:meth:`CompactTopology.apply_delta` instead of re-interning the whole
graph: closed channels *tombstone* their slots (removed from the live
per-node rows, never renumbered), opened channels append fresh slots
to a shared append-only arena, and the BFS/Yen/maxflow kernels iterate
only the live rows — dead slots are skipped without any re-interning.
Once tombstones plus arena slots outgrow a fraction of the base CSR,
the next ``compact()`` call performs a full *compaction* rebuild.
Balance changes never invalidate a snapshot.  In-flight holds are
balance state too: the concurrent engine's hold/settle/release
lifecycle (:mod:`repro.sim.concurrent`) moves escrow, never structure,
so snapshots — and every cache keyed on them, like the routing table's
BFS layers — stay valid while payments are in flight.  Routers see
holds where they must: through probed balances, which are net of
escrow.  The full delta lifecycle is documented in
``docs/ARCHITECTURE.md`` ("Incremental topology maintenance").
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, Sequence

import numpy as np

from repro.network.channel import NodeId

__all__ = ["CompactTopology"]


def get_default_backend() -> str:
    """Always ``"python"``; selects nothing.

    :class:`CompactTopology` picks its sweep kernel by graph size
    (:attr:`CompactTopology.VECTOR_SWEEP_MIN_NODES`).  This stays, outside
    ``__all__``, only because ``perfbench/run.py`` records the name in its
    provenance; the next change to the benchmark deletes it together with
    that call.
    """
    return "python"


def set_default_backend(backend: str) -> str:
    """Validate a former backend name; selects nothing.

    Kept, outside ``__all__``, only because ``perfbench/run.py`` calls
    it, and deleted together with that call.  Accepts ``"python"`` or
    ``"numpy"`` and returns it; any other name raises ``ValueError``.
    """
    if backend not in ("python", "numpy"):
        raise ValueError(f"unknown backend {backend!r} (known: python, numpy)")
    return backend


class CompactTopology(Mapping):
    """Immutable CSR snapshot of a structural topology.

    Parameters are the already-built arrays; use :meth:`from_adjacency` or
    :meth:`ChannelGraph.compact` rather than constructing directly.

    Attributes
    ----------
    nodes:
        Dense index -> original node id (interning table).
    indptr, indices:
        CSR adjacency: the neighbors of node ``u`` are
        ``indices[indptr[u]:indptr[u + 1]]``.  A position in ``indices``
        is a *slot* — the id of one directed edge.
    slot_tail:
        ``slot_tail[slot]`` is the tail (source) node index of the slot;
        ``indices[slot]`` is its head.
    reverse_slot:
        Slot of the opposite direction of the same channel, or ``-1``
        when the adjacency has no reverse edge (directed mappings).
    slot_map:
        ``(tail, head) -> slot`` for every live directed edge.
    version:
        The owning graph's topology version at build time (0 for
        free-standing snapshots).

    Snapshots derived through :meth:`apply_delta` share ``indices``,
    ``slot_tail``, and ``reverse_slot`` append-only with their base (a
    slot id, once assigned, always names the same directed edge);
    ``indptr`` then describes the *base* CSR only and the live adjacency
    is carried by :attr:`neighbor_idx` / :attr:`slot_rows`, which every
    kernel iterates.  Tombstoned (closed) slots simply vanish from the
    rows, so kernels never see them.  A :meth:`fork` shares everything
    but those three arrays, which it copies, so sibling forks of one
    snapshot can each take their own deltas.
    """

    __slots__ = (
        "nodes",
        "indptr",
        "indices",
        "slot_tail",
        "reverse_slot",
        "version",
        "_index",
        "slot_map",
        "_nbr_idx",
        "_slot_rows",
        "_num_slots",
        "_base_slots",
        "_dead_count",
        "_arena_count",
        "_neighbor_lists",
        "_repr_keys",
        "_seen",
        "_parent",
        "_parent_slot",
        "_epoch",
        "_seen_b",
        "_parent_b",
        "_dist_f",
        "_dist_b",
        "_symmetric",
        "_flow_residual",
        "_flow_stamp",
        "_flow_epoch",
        "_np_arrays",
        "_np_seen",
        "_np_stamp",
        "_np_epoch",
        "policy_version",
        "fee_rates",
    )

    #: Below this many nodes the serial kernels win (bidirectional setup
    #: overhead dominates) and, more importantly, unit-test-scale graphs
    #: keep the tie-breaking of a plain one-sided BFS.
    BIDIRECTIONAL_MIN_NODES = 128

    #: At or above this many nodes the unconstrained full sweeps
    #: (:meth:`distances_idx` without ``slot_ok``, :meth:`bfs_tree`)
    #: run vectorized, one whole BFS frontier per numpy pass; below it
    #: they run the serial loops.  A vectorized level pays a fixed
    #: ndarray call overhead that only a wide frontier amortizes: on
    #: BA graphs the vectorized sweeps ran 0.26-0.44x the serial speed
    #: at 100 nodes and beat it on every graph measured from 2,000 up
    #: (table in docs/ARCHITECTURE.md, "Kernel selection").  Both
    #: kernels return the same dict or arrays, in the same discovery
    #: order, so the choice never changes a result.  Single-pair
    #: searches (Yen's spur loop, Algorithm 1) stay serial at every
    #: size: they visit a small share of the graph, and vectorizing them
    #: measured 10-20x slower.
    VECTOR_SWEEP_MIN_NODES = 2_000

    #: Compaction trigger: once tombstoned + arena slots exceed
    #: ``max(COMPACT_MIN_SLOTS, base_slots // 4)`` the next
    #: :meth:`ChannelGraph.compact` performs a full rebuild instead of
    #: another delta, bounding both memory waste and chain length.
    COMPACT_MIN_SLOTS = 64

    def __init__(
        self,
        nodes: list[NodeId],
        indptr: list[int],
        indices: list[int],
        version: int = 0,
    ) -> None:
        self.nodes = nodes
        self.indptr = indptr
        self.indices = indices
        self.version = version
        self._index: dict[NodeId, int] = {
            node: i for i, node in enumerate(nodes)
        }
        n = len(nodes)
        tail = [0] * len(indices)
        for u in range(n):
            for slot in range(indptr[u], indptr[u + 1]):
                tail[slot] = u
        self.slot_tail = tail
        slot_map: dict[tuple[int, int], int] = {}
        for slot, head in enumerate(indices):
            slot_map[(tail[slot], head)] = slot
        self.slot_map = slot_map
        self.reverse_slot = [
            slot_map.get((indices[slot], tail[slot]), -1)
            for slot in range(len(indices))
        ]
        self._neighbor_lists: dict[int, tuple[NodeId, ...]] = {}
        self._repr_keys: list[str] | None = None
        # Per-node neighbor index lists (CSR unpacked once): the BFS inner
        # loops iterate these directly, which is markedly faster in Python
        # than repeatedly slicing/indexing the flat ``indices`` array.
        self._nbr_idx: list[list[int]] | None = None
        # Per-node live slot lists, aligned entry-for-entry with
        # ``_nbr_idx`` (slot of the edge to that neighbor).  The shared
        # slot arrays may be extended append-only by derived snapshots,
        # so slot-space bookkeeping is frozen per snapshot here.
        self._slot_rows: list[list[int]] | None = None
        self._num_slots = len(indices)
        self._base_slots = len(indices)
        self._dead_count = 0
        self._arena_count = 0
        # Epoch-stamped BFS scratch buffers (reused across searches).
        self._seen = [0] * n
        self._parent = [0] * n
        self._parent_slot = [0] * n
        self._epoch = 0
        # Backward-search scratch, allocated on first bidirectional query.
        self._seen_b: list[int] | None = None
        self._parent_b: list[int] | None = None
        self._dist_f: list[int] | None = None
        self._dist_b: list[int] | None = None
        self._symmetric: bool | None = None
        # Per-slot flow scratch for Algorithm 1 (see flow_scratch()).
        self._flow_residual: list[float] | None = None
        self._flow_stamp: list[int] | None = None
        self._flow_epoch = 0
        # Vectorized-sweep state: lazy int64 CSR mirrors and
        # epoch-stamped vector scratch.
        self._np_arrays = None
        self._np_seen = None
        self._np_stamp = None
        self._np_epoch = 0
        # Per-slot fee_rate array (see set_fee_rates); None until set.
        self.policy_version = 0
        self.fee_rates: list[float] | None = None

    # ------------------------------------------------------------ building

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Mapping[NodeId, Sequence[NodeId]],
        version: int = 0,
    ) -> "CompactTopology":
        """Build from a ``node -> neighbors`` mapping.

        Node order follows the mapping's iteration order and neighbor
        order is preserved, so below :attr:`BIDIRECTIONAL_MIN_NODES`
        every path result is the one a one-sided BFS walking the
        mapping's own lists finds.  Neighbors that are not themselves keys
        (dangling references) are interned with no outgoing edges.
        An input that is already a snapshot passes through unchanged.
        """
        if isinstance(adjacency, cls):
            return adjacency
        nodes: list[NodeId] = []
        index: dict[NodeId, int] = {}
        for node in adjacency:
            index[node] = len(nodes)
            nodes.append(node)
        for neighbors in adjacency.values():
            for v in neighbors:
                if v not in index:
                    index[v] = len(nodes)
                    nodes.append(v)
        indptr = [0] * (len(nodes) + 1)
        indices: list[int] = []
        for i, node in enumerate(nodes):
            neighbors = adjacency.get(node, ())
            indices.extend(index[v] for v in neighbors)
            indptr[i + 1] = len(indices)
        return cls(nodes, indptr, indices, version=version)

    # ---------------------------------------------------- delta application

    def should_compact(self, extra_ops: int = 0) -> bool:
        """True when applying ``extra_ops`` more deltas should rebuild.

        The trigger is cumulative: tombstoned plus arena slots since the
        last full build (each channel op touches two directed slots)
        crossing ``max(COMPACT_MIN_SLOTS, base_slots // 4)``.
        :meth:`ChannelGraph.compact` consults this before choosing the
        delta path, so compaction happens as a periodic full rebuild.
        """
        projected = self._dead_count + self._arena_count + 2 * extra_ops
        return projected > max(self.COMPACT_MIN_SLOTS, self._base_slots // 4)

    def apply_delta(
        self, ops: Sequence[tuple], version: int = 0, rate_of=None
    ) -> "CompactTopology":
        """Derive the snapshot after a batch of channel ops — O(touched).

        ``ops`` is an ordered sequence of

        * ``("node", n)`` — intern a (possibly) new node with no edges;
        * ``("open", a, b)`` — open the channel ``a — b`` (both directed
          slots are appended to the shared arena, at the *end* of each
          endpoint's neighbor row, exactly where a from-scratch rebuild
          of the mutated graph would place them);
        * ``("close", a, b)`` — close the channel ``a — b`` (both slots
          are tombstoned: dropped from the live rows and the slot map,
          never renumbered).

        Returns a **new** snapshot; ``self`` is left observably
        unchanged, so holders of the old snapshot (a router between
        gossip ticks) keep computing over a stale-but-consistent
        topology.  The two snapshots share the append-only slot arrays
        and all untouched per-node rows; only touched rows, the slot
        map, and O(V) scratch are fresh.  Applying the same op stream
        that mutated a :class:`ChannelGraph` yields a snapshot
        observably identical to ``from_adjacency(graph.adjacency())``
        (node order, neighbor order, BFS results) — the invariant the
        property suite in ``tests/property/test_compact_incremental.py``
        fuzzes.

        When a ``fee_rate`` array is installed, each opened slot takes
        the rate ``rate_of(src, dst)`` returns, or 0.0 when there is no
        lookup.
        """
        nbrs = list(self.neighbor_idx)
        rows = list(self.slot_rows)
        nodes = self.nodes
        index = self._index
        repr_keys = self._repr_keys
        nodes_copied = False
        slot_map = dict(self.slot_map)
        indices = self.indices
        slot_tail = self.slot_tail
        reverse_slot = self.reverse_slot
        neighbor_lists = dict(self._neighbor_lists)
        dead = self._dead_count
        arena = self._arena_count
        fee_rates = self.fee_rates
        touched: set[int] = set()

        def own(i: int) -> None:
            # Copy-on-first-touch: rows of untouched nodes stay shared.
            if i not in touched:
                nbrs[i] = list(nbrs[i])
                rows[i] = list(rows[i])
                neighbor_lists.pop(i, None)
                touched.add(i)

        for op in ops:
            kind = op[0]
            if kind == "open":
                _, a, b = op
                ia = index[a]
                ib = index[b]
                own(ia)
                own(ib)
                s_ab = len(indices)
                s_ba = s_ab + 1
                indices.append(ib)
                indices.append(ia)
                slot_tail.append(ia)
                slot_tail.append(ib)
                reverse_slot.append(s_ba)
                reverse_slot.append(s_ab)
                nbrs[ia].append(ib)
                rows[ia].append(s_ab)
                nbrs[ib].append(ia)
                rows[ib].append(s_ba)
                slot_map[(ia, ib)] = s_ab
                slot_map[(ib, ia)] = s_ba
                arena += 2
                if fee_rates is not None:
                    # Keep the rate array aligned with the arena.
                    # Appending at the tail is safe for the base
                    # snapshot: it never indexes past its own slot count.
                    fee_rates.append(0.0 if rate_of is None else rate_of(a, b))
                    fee_rates.append(0.0 if rate_of is None else rate_of(b, a))
            elif kind == "close":
                _, a, b = op
                ia = index[a]
                ib = index[b]
                own(ia)
                own(ib)
                del slot_map[(ia, ib)]
                del slot_map[(ib, ia)]
                j = nbrs[ia].index(ib)
                del nbrs[ia][j]
                del rows[ia][j]
                j = nbrs[ib].index(ia)
                del nbrs[ib][j]
                del rows[ib][j]
                dead += 2
            elif kind == "node":
                node = op[1]
                if node in index:
                    continue
                if not nodes_copied:
                    # The nodes list and interning dict are shared with
                    # the base; growing them in place would leak the new
                    # node into the old snapshot's Mapping view.
                    nodes = list(nodes)
                    index = dict(index)
                    if repr_keys is not None:
                        repr_keys = list(repr_keys)
                    nodes_copied = True
                index[node] = len(nodes)
                nodes.append(node)
                nbrs.append([])
                rows.append([])
                if repr_keys is not None:
                    repr_keys.append(repr(node))
            else:
                raise ValueError(f"unknown topology delta op {op!r}")

        # Vector mirrors never carry over: a derived snapshot's live rows
        # differ from the base CSR, so the mirrors are rebuilt (lazily,
        # on the first vectorized sweep) from the rows themselves.
        # The rate array is append-only and slot-parallel, so it is
        # shared like the other slot arrays.
        return self._derive(
            nodes=nodes,
            index=index,
            repr_keys=repr_keys,
            nbrs=nbrs,
            rows=rows,
            slot_map=slot_map,
            neighbor_lists=neighbor_lists,
            indices=indices,
            slot_tail=slot_tail,
            reverse_slot=reverse_slot,
            dead=dead,
            arena=arena,
            version=version,
            # Channel deltas add/remove both directions together, so a
            # symmetric topology stays symmetric; anything else recomputes.
            symmetric=True if self._symmetric is True else None,
            np_arrays=None,
            policy_version=self.policy_version,
            fee_rates=fee_rates,
        )

    def fork(self) -> "CompactTopology":
        """An observably identical snapshot that owns its slot arrays.

        The fork shares this snapshot's interning table and repr keys,
        per-node rows, slot map, neighbor-tuple cache and vector mirrors
        (those last only if a vectorized sweep has already built them;
        otherwise each fork builds its own on its first one), all of
        which :meth:`apply_delta` copies before changing.  It
        gets its own ``indices``/``slot_tail``/``reverse_slot``, cut at
        this snapshot's :attr:`num_slots`, because ``apply_delta``
        appends to those in place: sibling forks then grow their arenas
        independently.  Scratch buffers start fresh and no fee rates
        are installed (:meth:`ChannelGraph.compact` installs the owning
        graph's own).  O(V + E) list copies at C speed, with none of the
        per-edge interning loops of a rebuild.
        """
        num = self._num_slots
        return self._derive(
            nodes=self.nodes,
            index=self._index,
            repr_keys=self.repr_keys,
            nbrs=self.neighbor_idx,
            rows=self.slot_rows,
            slot_map=self.slot_map,
            neighbor_lists=self._neighbor_lists,
            indices=self.indices[:num],
            slot_tail=self.slot_tail[:num],
            reverse_slot=self.reverse_slot[:num],
            dead=self._dead_count,
            arena=self._arena_count,
            version=self.version,
            symmetric=self.is_symmetric,
            np_arrays=self._np_arrays,
            policy_version=0,
            fee_rates=None,
        )

    def _derive(
        self,
        *,
        nodes: list[NodeId],
        index: dict[NodeId, int],
        repr_keys: list[str] | None,
        nbrs: list[list[int]],
        rows: list[list[int]],
        slot_map: dict[tuple[int, int], int],
        neighbor_lists: dict[int, tuple[NodeId, ...]],
        indices: list[int],
        slot_tail: list[int],
        reverse_slot: list[int],
        dead: int,
        arena: int,
        version: int,
        symmetric: bool | None,
        np_arrays,
        policy_version: int,
        fee_rates: list[float] | None,
    ) -> "CompactTopology":
        """Assemble a snapshot over this one's base CSR, fresh scratch."""
        derived = object.__new__(CompactTopology)
        derived.nodes = nodes
        derived.indptr = self.indptr  # base CSR; kernels use the rows
        derived.indices = indices
        derived.slot_tail = slot_tail
        derived.reverse_slot = reverse_slot
        derived.version = version
        derived._index = index
        derived.slot_map = slot_map
        derived._nbr_idx = nbrs
        derived._slot_rows = rows
        derived._num_slots = len(indices)
        derived._base_slots = self._base_slots
        derived._dead_count = dead
        derived._arena_count = arena
        derived._neighbor_lists = neighbor_lists
        derived._repr_keys = repr_keys
        n = len(nodes)
        derived._seen = [0] * n
        derived._parent = [0] * n
        derived._parent_slot = [0] * n
        derived._epoch = 0
        derived._seen_b = None
        derived._parent_b = None
        derived._dist_f = None
        derived._dist_b = None
        derived._symmetric = symmetric
        derived._flow_residual = None
        derived._flow_stamp = None
        derived._flow_epoch = 0
        derived._np_arrays = np_arrays
        derived._np_seen = None
        derived._np_stamp = None
        derived._np_epoch = 0
        derived.policy_version = policy_version
        derived.fee_rates = fee_rates
        return derived

    # ---------------------------------------------------- mapping protocol

    def __getitem__(self, node: NodeId) -> tuple[NodeId, ...]:
        # Tuples, not lists: the snapshot is shared by every router that
        # called ``graph.compact()``, so handing out a cached mutable
        # list would let one caller corrupt all the others' views.
        i = self._index.get(node)
        if i is None:
            raise KeyError(node)
        cached = self._neighbor_lists.get(i)
        if cached is None:
            nodes = self.nodes
            cached = tuple(nodes[v] for v in self.neighbor_idx[i])
            self._neighbor_lists[i] = cached
        return cached

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._index

    # ----------------------------------------------------------- accessors

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_slots(self) -> int:
        """Size of this snapshot's slot id space (includes tombstones).

        Equal to the directed-edge count on a freshly built snapshot;
        on a delta-derived one it also counts tombstoned slots, whose
        ids are never reused until compaction.  See :attr:`live_slots`
        for the live directed-edge count.
        """
        return self._num_slots

    @property
    def live_slots(self) -> int:
        """Number of live directed edges (slot space minus tombstones)."""
        return len(self.slot_map)

    def index_of(self, node: NodeId) -> int | None:
        """Dense index of ``node``, or ``None`` if unknown."""
        return self._index.get(node)

    def slot_of(self, u_idx: int, v_idx: int) -> int | None:
        """Slot of directed edge ``u -> v`` (by dense index), or ``None``."""
        return self.slot_map.get((u_idx, v_idx))

    @property
    def repr_keys(self) -> list[str]:
        """Per-node ``repr`` strings — the deterministic Yen tie-break key."""
        keys = self._repr_keys
        if keys is None:
            keys = [repr(node) for node in self.nodes]
            self._repr_keys = keys
        return keys

    def path_nodes(self, idx_path: Sequence[int]) -> list[NodeId]:
        """Translate a dense-index path back to node ids."""
        nodes = self.nodes
        return [nodes[i] for i in idx_path]

    def path_slots(self, idx_path: Sequence[int]) -> list[int] | None:
        """Slots traversed by an index path, or ``None`` on a non-edge."""
        slots = []
        slot_map = self.slot_map
        for u, v in zip(idx_path, idx_path[1:]):
            slot = slot_map.get((u, v))
            if slot is None:
                return None
            slots.append(slot)
        return slots

    @property
    def neighbor_idx(self) -> list[list[int]]:
        """Per-node live neighbor index lists (lazily unpacked from CSR).

        On delta-derived snapshots these are maintained directly (closed
        neighbors removed, opened ones appended) and are the kernels'
        source of truth; the CSR slices only seed the first build.
        """
        nbrs = self._nbr_idx
        if nbrs is None:
            indptr = self.indptr
            indices = self.indices
            nbrs = [
                indices[indptr[i] : indptr[i + 1]]
                for i in range(len(self.nodes))
            ]
            self._nbr_idx = nbrs
        return nbrs

    @property
    def slot_rows(self) -> list[list[int]]:
        """Per-node live slot lists, aligned with :attr:`neighbor_idx`.

        ``slot_rows[u][j]`` is the slot of the directed edge from ``u``
        to ``neighbor_idx[u][j]``.  Kernels that need slot ids iterate
        these rows (zip with the neighbor row), which is what lets them
        skip tombstoned slots without consulting any per-slot liveness
        flag.
        """
        rows = self._slot_rows
        if rows is None:
            indptr = self.indptr
            rows = [
                list(range(indptr[i], indptr[i + 1]))
                for i in range(len(self.nodes))
            ]
            self._slot_rows = rows
        return rows

    @property
    def is_symmetric(self) -> bool:
        """True when every live directed edge has its reverse (undirected)."""
        symmetric = self._symmetric
        if symmetric is None:
            reverse_slot = self.reverse_slot
            symmetric = all(
                reverse_slot[slot] >= 0
                for row in self.slot_rows
                for slot in row
            )
            self._symmetric = symmetric
        return symmetric

    # -------------------------------------------------------- BFS kernels
    #
    # Four variants of the same search, specialized so the common cases
    # pay no per-edge Python call: ``plain`` (no constraints),
    # ``banned`` (edge-code set + blocked nodes — Yen's spur search and
    # edge-disjoint selection), ``residual`` (flow-positive slots only —
    # Algorithm 1), and the generic ``idx`` form taking an arbitrary
    # ``slot_ok`` callback.  All four visit neighbors in CSR order, so
    # they break ties as a one-sided BFS over the adjacency lists does.
    #
    # On symmetric graphs of at least ``BIDIRECTIONAL_MIN_NODES`` nodes
    # the first three switch to *bidirectional* level-synchronous search:
    # two frontiers grow from both endpoints and the completed level's
    # minimum-total meeting node joins them.  On small-world topologies
    # this visits O(sqrt) of the edges a one-sided sweep touches — the
    # dominant speedup of this module.  A bidirectional search returns *a*
    # fewest-hop path (deterministic, but its tie-break may differ from
    # the one-sided order), which is why small graphs — unit-test scale,
    # where the tests pin exact equality with a reference one-sided
    # BFS — stay on the serial kernels.

    def _use_bidirectional(self) -> bool:
        return (
            len(self.nodes) >= self.BIDIRECTIONAL_MIN_NODES
            and self.is_symmetric
        )

    # ------------------------------------------------- vectorized sweeps

    def _np(self):
        """Lazy int64 mirrors ``(row_ptr, flat_neighbors, degrees)``.

        On fresh snapshots the mirrors wrap the CSR arrays directly; on
        delta-derived ones they are flattened from the live rows (so
        tombstoned slots never appear).
        """
        arrays = self._np_arrays
        if arrays is None:
            if (
                self._dead_count == 0
                and self._arena_count == 0
                and len(self.indptr) == len(self.nodes) + 1
            ):
                row_ptr = np.asarray(self.indptr, dtype=np.int64)
                flat = np.asarray(self.indices, dtype=np.int64)
            else:
                rows = self.neighbor_idx
                counts = np.fromiter(
                    (len(row) for row in rows),
                    dtype=np.int64,
                    count=len(rows),
                )
                row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
                np.cumsum(counts, out=row_ptr[1:])
                flat = np.fromiter(
                    (v for row in rows for v in row),
                    dtype=np.int64,
                    count=int(row_ptr[-1]),
                )
            arrays = (row_ptr, flat, row_ptr[1:] - row_ptr[:-1])
            self._np_arrays = arrays
        return arrays

    def _np_scratch(self):
        """Epoch-stamped ``(seen, stamp, epoch)`` vector scratch."""
        seen = self._np_seen
        if seen is None:
            n = len(self.nodes)
            seen = np.zeros(n, dtype=np.int64)
            self._np_seen = seen
            self._np_stamp = np.zeros(n, dtype=np.int64)
        self._np_epoch += 1
        return seen, self._np_stamp, self._np_epoch

    def _distances_idx_np(self, src: int) -> dict[int, int]:
        """Vectorized whole-frontier distance sweep.

        Level by level: gather every frontier edge with one fancy-index
        pass, drop already-seen heads, then keep the *first occurrence*
        of each head in edge order via the reversed-last-write stamp
        trick (``stamp[neigh[::-1]] = pos[::-1]`` leaves each head's
        first position, so ``stamp[neigh] == pos`` masks exactly the
        serial kernel's insertions).  The result dict therefore matches
        the serial sweep bit-for-bit *including insertion order*.
        """
        row_ptr, flat, deg = self._np()
        seen, stamp, epoch = self._np_scratch()
        seen[src] = epoch
        dist = {src: 0}
        frontier = np.full(1, src, dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            counts = deg[frontier]
            total = int(counts.sum())
            if not total:
                break
            cum = np.cumsum(counts)
            pos = np.arange(total, dtype=np.int64)
            neigh = flat[
                np.repeat(row_ptr[frontier] - (cum - counts), counts) + pos
            ]
            neigh = neigh[seen[neigh] != epoch]
            if not neigh.size:
                break
            pos = pos[: neigh.size]
            stamp[neigh[::-1]] = pos[::-1]
            frontier = neigh[stamp[neigh] == pos]
            seen[frontier] = epoch
            dist.update(dict.fromkeys(frontier.tolist(), depth))
        return dist

    def _bfs_tree_np(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized BFS spanning-tree sweep (see :meth:`bfs_tree`).

        Same frontier batching and first-occurrence stamping as
        :meth:`_distances_idx_np`, additionally carrying each edge's
        tail so the surviving heads adopt exactly the parent the serial
        kernel would assign.  The parent array doubles as the seen set,
        and the order is the levels' frontiers end to end.
        """
        row_ptr, flat, deg = self._np()
        stamp = self._np_scratch()[1]
        parent = np.full(len(self.nodes), -1, dtype=np.int64)
        parent[src] = src
        frontier = np.full(1, src, dtype=np.int64)
        levels = [frontier]
        while True:
            counts = deg[frontier]
            total = int(counts.sum())
            if not total:
                break
            cum = np.cumsum(counts)
            pos = np.arange(total, dtype=np.int64)
            neigh = flat[
                np.repeat(row_ptr[frontier] - (cum - counts), counts) + pos
            ]
            par = np.repeat(frontier, counts)
            mask = parent[neigh] < 0
            neigh = neigh[mask]
            if not neigh.size:
                break
            par = par[mask]
            pos = pos[: neigh.size]
            stamp[neigh[::-1]] = pos[::-1]
            keep = stamp[neigh] == pos
            frontier = neigh[keep]
            parent[frontier] = par[keep]
            levels.append(frontier)
        return parent, np.concatenate(levels)

    def flow_scratch(self) -> tuple[list[float], list[int], int]:
        """Per-slot ``(residual, stamp, epoch)`` scratch for Algorithm 1.

        A slot is *probed* when ``stamp[slot] == epoch``; its residual
        value is meaningful only then.  Bumping the epoch (each call)
        invalidates the previous caller's state in O(1), so per-payment
        path searches avoid allocating O(num_slots) buffers.  Not
        reentrant: one flow computation per topology at a time.
        """
        if self._flow_residual is None:
            self._flow_residual = [0.0] * self._num_slots
            self._flow_stamp = [0] * self._num_slots
        self._flow_epoch += 1
        return self._flow_residual, self._flow_stamp, self._flow_epoch

    def _bidir_scratch(self) -> tuple[list[int], list[int], list[int], list[int]]:
        if self._seen_b is None:
            n = len(self.nodes)
            self._seen_b = [0] * n
            self._parent_b = [0] * n
            self._dist_f = [0] * n
            self._dist_b = [0] * n
        return self._seen_b, self._parent_b, self._dist_f, self._dist_b

    def _join(self, src: int, dst: int, meet: int) -> list[int]:
        """Splice forward and backward parent chains at ``meet``."""
        parent_f = self._parent
        parent_b = self._parent_b
        path = [meet]
        while path[-1] != src:
            path.append(parent_f[path[-1]])
        path.reverse()
        node = meet
        while node != dst:
            node = parent_b[node]
            path.append(node)
        return path

    def _bidir_plain(self, src: int, dst: int) -> list[int] | None:
        nbrs = self.neighbor_idx
        seen_f = self._seen
        parent_f = self._parent
        seen_b, parent_b, dist_f, dist_b = self._bidir_scratch()
        self._epoch += 1
        epoch = self._epoch
        seen_f[src] = epoch
        parent_f[src] = src
        dist_f[src] = 0
        seen_b[dst] = epoch
        parent_b[dst] = dst
        dist_b[dst] = 0
        front_f = [src]
        front_b = [dst]
        while front_f and front_b:
            best = -1
            best_total = 0
            if len(front_f) <= len(front_b):
                nxt: list[int] = []
                for u in front_f:
                    depth = dist_f[u] + 1
                    for v in nbrs[u]:
                        if seen_f[v] == epoch:
                            continue
                        seen_f[v] = epoch
                        parent_f[v] = u
                        dist_f[v] = depth
                        nxt.append(v)
                        if seen_b[v] == epoch:
                            total = depth + dist_b[v]
                            if best < 0 or total < best_total:
                                best = v
                                best_total = total
                front_f = nxt
            else:
                nxt = []
                for u in front_b:
                    depth = dist_b[u] + 1
                    for v in nbrs[u]:
                        if seen_b[v] == epoch:
                            continue
                        seen_b[v] = epoch
                        parent_b[v] = u
                        dist_b[v] = depth
                        nxt.append(v)
                        if seen_f[v] == epoch:
                            total = depth + dist_f[v]
                            if best < 0 or total < best_total:
                                best = v
                                best_total = total
                front_b = nxt
            if best >= 0:
                return self._join(src, dst, best)
        return None

    def _bidir_banned(
        self,
        src: int,
        dst: int,
        banned: set[int],
        blocked: bytearray | None,
    ) -> list[int] | None:
        nbrs = self.neighbor_idx
        n = len(self.nodes)
        seen_f = self._seen
        parent_f = self._parent
        seen_b, parent_b, dist_f, dist_b = self._bidir_scratch()
        self._epoch += 1
        epoch = self._epoch
        seen_f[src] = epoch
        parent_f[src] = src
        dist_f[src] = 0
        seen_b[dst] = epoch
        parent_b[dst] = dst
        dist_b[dst] = 0
        front_f = [src]
        front_b = [dst]
        while front_f and front_b:
            best = -1
            best_total = 0
            if len(front_f) <= len(front_b):
                nxt: list[int] = []
                for u in front_f:
                    depth = dist_f[u] + 1
                    base = u * n
                    for v in nbrs[u]:
                        if seen_f[v] == epoch:
                            continue
                        if blocked is not None and blocked[v]:
                            continue
                        if base + v in banned:
                            continue
                        seen_f[v] = epoch
                        parent_f[v] = u
                        dist_f[v] = depth
                        nxt.append(v)
                        if seen_b[v] == epoch:
                            total = depth + dist_b[v]
                            if best < 0 or total < best_total:
                                best = v
                                best_total = total
                front_f = nxt
            else:
                nxt = []
                for u in front_b:
                    depth = dist_b[u] + 1
                    for v in nbrs[u]:
                        # The path edge is traversed forward as v -> u.
                        if seen_b[v] == epoch:
                            continue
                        if blocked is not None and blocked[v]:
                            continue
                        if v * n + u in banned:
                            continue
                        seen_b[v] = epoch
                        parent_b[v] = u
                        dist_b[v] = depth
                        nxt.append(v)
                        if seen_f[v] == epoch:
                            total = depth + dist_f[v]
                            if best < 0 or total < best_total:
                                best = v
                                best_total = total
                front_b = nxt
            if best >= 0:
                return self._join(src, dst, best)
        return None

    def _bidir_residual(
        self,
        src: int,
        dst: int,
        residual: list[float],
        stamp: list[int],
        flow_epoch: int,
        eps: float,
    ) -> tuple[list[int], list[int]] | None:
        nbrs = self.neighbor_idx
        srows = self.slot_rows
        reverse_slot = self.reverse_slot
        seen_f = self._seen
        parent_f = self._parent
        seen_b, parent_b, dist_f, dist_b = self._bidir_scratch()
        self._epoch += 1
        epoch = self._epoch
        seen_f[src] = epoch
        parent_f[src] = src
        dist_f[src] = 0
        seen_b[dst] = epoch
        parent_b[dst] = dst
        dist_b[dst] = 0
        front_f = [src]
        front_b = [dst]
        while front_f and front_b:
            best = -1
            best_total = 0
            if len(front_f) <= len(front_b):
                nxt: list[int] = []
                for u in front_f:
                    depth = dist_f[u] + 1
                    for this_slot, v in zip(srows[u], nbrs[u]):
                        if seen_f[v] == epoch:
                            continue
                        if (
                            stamp[this_slot] == flow_epoch
                            and residual[this_slot] <= eps
                        ):
                            continue
                        seen_f[v] = epoch
                        parent_f[v] = u
                        dist_f[v] = depth
                        nxt.append(v)
                        if seen_b[v] == epoch:
                            total = depth + dist_b[v]
                            if best < 0 or total < best_total:
                                best = v
                                best_total = total
                front_f = nxt
            else:
                nxt = []
                for u in front_b:
                    depth = dist_b[u] + 1
                    for this_slot, v in zip(srows[u], nbrs[u]):
                        # The flow direction is v -> u: check the reverse.
                        path_slot = reverse_slot[this_slot]
                        if seen_b[v] == epoch:
                            continue
                        if (
                            stamp[path_slot] == flow_epoch
                            and residual[path_slot] <= eps
                        ):
                            continue
                        seen_b[v] = epoch
                        parent_b[v] = u
                        dist_b[v] = depth
                        nxt.append(v)
                        if seen_f[v] == epoch:
                            total = depth + dist_f[v]
                            if best < 0 or total < best_total:
                                best = v
                                best_total = total
                front_b = nxt
            if best >= 0:
                idx_path = self._join(src, dst, best)
                slot_path = self.path_slots(idx_path)
                assert slot_path is not None
                return idx_path, slot_path
        return None

    def _trace(self, src: int, dst: int) -> list[int]:
        parent = self._parent
        idx_path = [dst]
        node = dst
        while node != src:
            node = parent[node]
            idx_path.append(node)
        idx_path.reverse()
        return idx_path

    def shortest_path_plain(self, src: int, dst: int) -> list[int] | None:
        """Unconstrained fewest-hop path over dense indices, or ``None``."""
        if src == dst:
            return [src]
        if self._use_bidirectional():
            return self._bidir_plain(src, dst)
        self._epoch += 1
        epoch = self._epoch
        seen = self._seen
        parent = self._parent
        nbrs = self.neighbor_idx
        seen[src] = epoch
        queue = [src]
        push = queue.append
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in nbrs[u]:
                if seen[v] != epoch:
                    seen[v] = epoch
                    parent[v] = u
                    if v == dst:
                        return self._trace(src, dst)
                    push(v)
        return None

    def shortest_path_banned(
        self,
        src: int,
        dst: int,
        banned: set[int],
        blocked: bytearray | None = None,
    ) -> list[int] | None:
        """Fewest-hop path avoiding banned edges and blocked nodes.

        ``banned`` holds directed-edge codes ``u * n + v`` (dense
        indices) — an int-set membership test per edge, no tuple
        allocation.  ``blocked`` marks nodes that must not be entered
        (``src`` exempt).
        """
        if src == dst:
            return [src]
        if blocked is not None and blocked[dst]:
            # The serial sweep would flood and fail; answer immediately,
            # and keep the bidirectional kernel (which seeds a frontier
            # *at* dst) honoring the same contract.
            return None
        if self._use_bidirectional():
            if blocked is not None and blocked[src]:
                # ``src`` is exempt from blocking, but the backward
                # frontier must still be allowed to *enter* it to meet.
                blocked = bytearray(blocked)
                blocked[src] = 0
            return self._bidir_banned(src, dst, banned, blocked)
        self._epoch += 1
        epoch = self._epoch
        seen = self._seen
        parent = self._parent
        nbrs = self.neighbor_idx
        n = len(self.nodes)
        seen[src] = epoch
        queue = [src]
        push = queue.append
        head = 0
        if blocked is None:
            while head < len(queue):
                u = queue[head]
                head += 1
                base = u * n
                for v in nbrs[u]:
                    if seen[v] != epoch and base + v not in banned:
                        seen[v] = epoch
                        parent[v] = u
                        if v == dst:
                            return self._trace(src, dst)
                        push(v)
        else:
            while head < len(queue):
                u = queue[head]
                head += 1
                base = u * n
                for v in nbrs[u]:
                    if (
                        seen[v] != epoch
                        and not blocked[v]
                        and base + v not in banned
                    ):
                        seen[v] = epoch
                        parent[v] = u
                        if v == dst:
                            return self._trace(src, dst)
                        push(v)
        return None

    def shortest_path_residual(
        self,
        src: int,
        dst: int,
        residual: list[float],
        stamp: list[int],
        flow_epoch: int,
        eps: float,
    ) -> tuple[list[int], list[int]] | None:
        """Fewest-hop path over slots that still admit flow (Algorithm 1).

        A slot is traversable when unprobed (``stamp[slot] != flow_epoch``
        — assumed positive, §3.2) or when its probed residual exceeds
        ``eps``.  Returns ``(index_path, slot_path)``.
        """
        if src == dst:
            return [src], []
        if self._use_bidirectional():
            return self._bidir_residual(src, dst, residual, stamp, flow_epoch, eps)
        self._epoch += 1
        epoch = self._epoch
        seen = self._seen
        parent = self._parent
        parent_slot = self._parent_slot
        srows = self.slot_rows
        nbrs = self.neighbor_idx
        seen[src] = epoch
        queue = [src]
        push = queue.append
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for this_slot, v in zip(srows[u], nbrs[u]):
                if seen[v] == epoch:
                    continue
                if stamp[this_slot] == flow_epoch and residual[this_slot] <= eps:
                    continue
                seen[v] = epoch
                parent[v] = u
                parent_slot[v] = this_slot
                if v == dst:
                    idx_path = [dst]
                    slot_path = []
                    node = dst
                    while node != src:
                        slot_path.append(parent_slot[node])
                        node = parent[node]
                        idx_path.append(node)
                    idx_path.reverse()
                    slot_path.reverse()
                    return idx_path, slot_path
                push(v)
        return None

    def shortest_path_idx(
        self,
        src: int,
        dst: int,
        slot_ok=None,
        blocked: bytearray | None = None,
    ) -> tuple[list[int], list[int]] | None:
        """Generic fewest-hop path with an arbitrary slot predicate.

        Returns ``(index_path, slot_path)`` where ``slot_path[i]`` is the
        slot of hop ``i``, or ``None`` when unreachable.  ``slot_ok(slot)``
        (if given) must be true for a slot to be traversable; ``blocked``
        is a per-node bytearray of forbidden nodes (``src`` exempt).
        """
        if src == dst:
            return [src], []
        self._epoch += 1
        epoch = self._epoch
        seen = self._seen
        parent = self._parent
        parent_slot = self._parent_slot
        srows = self.slot_rows
        nbrs = self.neighbor_idx
        seen[src] = epoch
        queue = [src]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for slot, v in zip(srows[u], nbrs[u]):
                if seen[v] == epoch:
                    continue
                if blocked is not None and blocked[v]:
                    continue
                if slot_ok is not None and not slot_ok(slot):
                    continue
                seen[v] = epoch
                parent[v] = u
                parent_slot[v] = slot
                if v == dst:
                    idx_path = [dst]
                    slot_path = []
                    node = dst
                    while node != src:
                        slot_path.append(parent_slot[node])
                        node = parent[node]
                        idx_path.append(node)
                    idx_path.reverse()
                    slot_path.reverse()
                    return idx_path, slot_path
                queue.append(v)
        return None

    def distances_idx(self, src: int, slot_ok=None) -> dict[int, int]:
        """Hop distance from ``src`` to every reachable dense index.

        The unconstrained sweep is vectorized on snapshots of at least
        :attr:`VECTOR_SWEEP_MIN_NODES` nodes (identical result, including
        dict order); a ``slot_ok`` predicate always takes the serial
        kernel since per-slot Python callbacks defeat batching.
        """
        if (
            slot_ok is None
            and len(self.nodes) >= self.VECTOR_SWEEP_MIN_NODES
        ):
            return self._distances_idx_np(src)
        dist = {src: 0}
        nbrs = self.neighbor_idx
        queue = [src]
        head = 0
        if slot_ok is None:
            while head < len(queue):
                u = queue[head]
                head += 1
                base = dist[u] + 1
                for v in nbrs[u]:
                    if v not in dist:
                        dist[v] = base
                        queue.append(v)
            return dist
        srows = self.slot_rows
        while head < len(queue):
            u = queue[head]
            head += 1
            base = dist[u] + 1
            for this_slot, v in zip(srows[u], nbrs[u]):
                if v in dist:
                    continue
                if not slot_ok(this_slot):
                    continue
                dist[v] = base
                queue.append(v)
        return dist

    def bfs_tree(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """BFS spanning tree rooted at ``src``: ``(parent, order)``.

        ``parent[i]`` is the dense index from which the sweep first
        reached ``i`` (``src`` is its own parent, -1 where unreached),
        and ``order`` lists the reached indices in BFS discovery order,
        ``src`` first; both are ``int64`` arrays.  Serial below
        :attr:`VECTOR_SWEEP_MIN_NODES` nodes, vectorized at or above it
        (:meth:`_bfs_tree_np`), with identical arrays either way.
        :class:`TreeParents` reads them by node id.
        """
        if len(self.nodes) >= self.VECTOR_SWEEP_MIN_NODES:
            return self._bfs_tree_np(src)
        parent = [-1] * len(self.nodes)
        parent[src] = src
        order = [src]
        nbrs = self.neighbor_idx
        for u in order:  # visits what the loop appends: the BFS queue
            for v in nbrs[u]:
                if parent[v] < 0:
                    parent[v] = u
                    order.append(v)
        return (
            np.array(parent, dtype=np.int64),
            np.array(order, dtype=np.int64),
        )

    # ----------------------------------------------------------- fee rates

    def fee_rates_from(self, lookup) -> list[float]:
        """The per-slot ``fee_rate`` array of the records ``lookup`` reads.

        ``lookup(u, v)`` returns the :class:`~repro.network.fees.ChannelPolicy`
        of the directed channel ``u -> v`` (node ids, not indices).
        Slots are filled from the live rows; tombstoned slots read 0.0,
        and nothing indexes them.
        """
        rates = [0.0] * self._num_slots
        nodes = self.nodes
        for u, (srow, nrow) in enumerate(
            zip(self.slot_rows, self.neighbor_idx)
        ):
            u_node = nodes[u]
            for s, v in zip(srow, nrow):
                rates[s] = lookup(u_node, nodes[v]).fee_rate
        return rates

    def set_fee_rates(self, rates: list[float], version: int) -> None:
        """Install ``rates`` as the per-slot ``fee_rate`` array.

        ``rates`` must be a new list, never the installed one edited in
        place: snapshots derived by :meth:`apply_delta` share it, and
        the ones the new list supersedes keep the old one.  ``version``
        stamps the graph's policy counter so
        :meth:`ChannelGraph.compact` can skip reinstalling when nothing
        changed.
        """
        self.fee_rates = rates
        self.policy_version = version


class TreeParents(Mapping):
    """Read-only ``node -> parent`` view of one :meth:`CompactTopology.bfs_tree`.

    Reads translate node ids through the snapshot's interning table:
    ``get``, ``[]`` and ``in`` cost one dict lookup and one array read,
    and ``len`` is the number of reached nodes.  The root maps to
    itself; an unreached or unknown node is not a key (``[]`` raises
    ``KeyError``).  Iteration, ``items()`` and ``reversed`` follow BFS
    discovery order, root first, exactly as the dict the view replaces
    did.  No per-node dict is built.

    The view holds the snapshot's node list and interning table, which
    derived snapshots share until a node is added, but not the snapshot
    itself, so a cached tree does not keep a superseded snapshot's
    scratch and mirrors alive.
    """

    __slots__ = ("_nodes", "_index", "_parent", "_order")

    def __init__(
        self, topology: CompactTopology, parent: np.ndarray, order: np.ndarray
    ) -> None:
        self._nodes = topology.nodes
        self._index = topology._index
        # Memoryviews: an item read returns a plain int, which is
        # cheaper than an ndarray scalar to compare and to index with.
        self._parent = parent.data
        self._order = order.data

    def __getitem__(self, node: NodeId) -> NodeId:
        i = self._index.get(node)
        if i is not None:
            p = self._parent[i]
            if p >= 0:
                return self._nodes[p]
        raise KeyError(node)

    def get(self, node: NodeId, default=None):
        """``node``'s parent, or ``default`` when it is not in the tree."""
        i = self._index.get(node)
        if i is not None:
            p = self._parent[i]
            if p >= 0:
                return self._nodes[p]
        return default

    def __contains__(self, node: object) -> bool:
        i = self._index.get(node)
        return i is not None and self._parent[i] >= 0

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        return map(self._nodes.__getitem__, self._order)

    def __reversed__(self):
        return map(self._nodes.__getitem__, reversed(self._order))

    def items(self) -> "_TreeItems":
        """``(node, parent)`` pairs in discovery order, reversible."""
        return _TreeItems(self)

    def _pairs(self, order) -> "zip[tuple[NodeId, NodeId]]":
        nodes = self._nodes
        parents = map(self._parent.__getitem__, order)
        return zip(
            map(nodes.__getitem__, order), map(nodes.__getitem__, parents)
        )


class _TreeItems(ItemsView):
    """The items view of :class:`TreeParents`, with ``reversed``."""

    __slots__ = ()

    def __iter__(self):
        return self._mapping._pairs(self._mapping._order)

    def __reversed__(self):
        return self._mapping._pairs(self._mapping._order[::-1])
