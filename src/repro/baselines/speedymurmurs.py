"""The SpeedyMurmurs baseline [29] (embedding-based static routing).

SpeedyMurmurs assigns every node a coordinate in each of ``L`` (= 3, per
§4.1) spanning trees rooted at landmark nodes, then forwards payments
greedily: at each hop the payment moves to a neighbor strictly closer (in
tree distance) to the receiver.  Because neighbors that are *shortcuts* in
the real graph — not only tree edges — qualify, paths are shorter than
pure tree routing.

The payment is split evenly into one share per tree; each share walks its
own greedy path.  Like all static schemes it never probes — a share simply
fails when a hop lacks balance, and the payment fails (atomically) when
any share fails.

A walk's step depends only on the tree, the target and the node it stands
on: the node's strictly closer neighbors at the least tree distance, in
neighbor order, from which ``rng`` draws on a tie.  No visited set is
needed, because the distance strictly decreases along a walk, so a node
already walked is never closer than the current one.  The router
therefore memoizes each node's candidate tuple per (tree, target), and a
recurring receiver's walk costs one dict read per hop with the same
draws.  The memo depends on the snapshot the trees were built on: it is
dropped with the embeddings when a gossip tick brings a new snapshot,
and kept, with them, across a tick that changed no structure (a fee-only
repricing).  It is also dropped before a payment once it holds
``_NEXT_HOP_LIMIT`` entries over all trees.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Mapping

from repro.core.base import Router, RoutingOutcome
from repro.network.channel import NodeId
from repro.network.paths import bfs_tree_parents
from repro.network.view import NetworkView
from repro.traces.workload import Transaction

_EPS = 1e-9

#: Number of landmarks/trees ([29] via §4.1).
SPEEDYMURMURS_LANDMARKS = 3

#: Memoized next-hop entries, over every tree and target, at which a
#: router drops its memo (checked before each payment).
_NEXT_HOP_LIMIT = 1 << 16

Coordinate = tuple[NodeId, ...]


class _TreeCoordinates(dict):
    """Coordinates in one BFS spanning tree, each computed on first read.

    ``parents`` are the tree's parent pointers (the root maps to itself)
    and tell which nodes the tree covers.  Reading a node not yet known
    walks its parent chain up to the first known coordinate and
    memoizes every coordinate on the way; a node outside the tree
    raises ``KeyError``.  Hits stay plain dict lookups.
    """

    __slots__ = ("parents",)

    def __init__(self, parents: Mapping[NodeId, NodeId], root: NodeId) -> None:
        super().__init__({root: (root,)})
        self.parents = parents

    def __missing__(self, node: NodeId) -> Coordinate:
        parents = self.parents
        chain = []
        cursor = node
        while cursor not in self:
            chain.append(cursor)
            cursor = parents[cursor]
        coordinate = self[cursor]
        for member in reversed(chain):
            coordinate = coordinate + (member,)
            self[member] = coordinate
        return coordinate


def tree_coordinates(
    topology: dict[NodeId, list[NodeId]], root: NodeId
) -> dict[NodeId, Coordinate]:
    """Coordinate of each node: its node path from ``root`` in a BFS tree."""
    coordinates = _TreeCoordinates(bfs_tree_parents(topology, root), root)
    for node in coordinates.parents:
        coordinates[node]  # computed and memoized on the read
    return coordinates


def tree_distance(a: Coordinate, b: Coordinate) -> int:
    """Hop distance between two coordinates in their spanning tree."""
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return (len(a) - common) + (len(b) - common)


class SpeedyMurmursRouter(Router):
    """Greedy embedding forwarding over 3 landmark-rooted spanning trees."""

    name = "SpeedyMurmurs"

    def __init__(
        self,
        view: NetworkView,
        num_landmarks: int = SPEEDYMURMURS_LANDMARKS,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(view)
        if num_landmarks <= 0:
            raise ValueError(f"num_landmarks must be positive, got {num_landmarks}")
        self.num_landmarks = num_landmarks
        self.rng = rng if rng is not None else random.Random(0)
        self._topology = view.compact_topology()
        self._embeddings: list[_TreeCoordinates] = []
        #: Per tree: target -> node -> the node's next-hop candidates.
        self._next_hops: list[dict[NodeId, dict[NodeId, tuple[NodeId, ...]]]] = []
        self._next_hop_entries = 0
        self._build_embeddings()

    def _build_embeddings(self) -> None:
        """Pick the highest-degree nodes as landmarks (as in [29]) and embed.

        Landmarks rank by degree, then ``repr``, exactly as sorting every
        node would.  Only a node whose degree reaches the
        ``num_landmarks``-th largest degree can rank that high, so only
        those candidates are ranked.  Each tree's coordinates are
        computed as routing reads them.  The next-hop memo starts empty.
        """
        topology = self._topology
        degrees = list(map(len, topology.neighbor_idx))
        floor = min(heapq.nlargest(self.num_landmarks, degrees), default=0)
        keys = topology.repr_keys
        landmarks = heapq.nsmallest(
            self.num_landmarks,
            [i for i, degree in enumerate(degrees) if degree >= floor],
            key=lambda i: (-degrees[i], keys[i]),
        )
        nodes = topology.nodes
        self._embeddings = [
            _TreeCoordinates(bfs_tree_parents(topology, nodes[i]), nodes[i])
            for i in landmarks
        ]
        self._drop_next_hops()

    def _drop_next_hops(self) -> None:
        self._next_hops = [{} for _ in self._embeddings]
        self._next_hop_entries = 0

    def on_topology_update(self, events=None) -> None:
        """Re-embed all spanning trees if the gossiped snapshot is new.

        Tree embeddings are global (any structural change can move
        coordinates), so a new snapshot gets the wholesale rebuild; the
        ``events`` batch is accepted for hook uniformity.  A tick that
        changed no structure (a fee-only repricing) hands back the
        snapshot already embedded, and the trees and the next-hop memo,
        which depend only on it, stay.
        """
        topology = self.view.compact_topology()
        if topology is self._topology:
            return
        self._topology = topology
        self._build_embeddings()

    def _closer_neighbors(
        self, embedding: _TreeCoordinates, node: NodeId, target: NodeId
    ) -> tuple[NodeId, ...]:
        """``node``'s strictly closer neighbors at the least tree distance.

        In neighbor order; every neighbor is in the tree, which spans its
        component of the same snapshot.
        """
        target_coord = embedding[target]
        node_distance = tree_distance(embedding[node], target_coord)
        best = node_distance
        closest: list[NodeId] = []
        for neighbor in self._topology[node]:
            distance = tree_distance(embedding[neighbor], target_coord)
            if distance < best:
                best = distance
                closest = [neighbor]
            elif distance == best and distance < node_distance:
                closest.append(neighbor)
        return tuple(closest)

    def _greedy_path(
        self,
        embedding: _TreeCoordinates,
        next_hops: dict[NodeId, dict[NodeId, tuple[NodeId, ...]]],
        source: NodeId,
        target: NodeId,
    ) -> list[NodeId] | None:
        """Greedy strictly-decreasing-distance walk; None if stuck.

        ``next_hops`` is the tree's memo; each step reads (or fills) the
        current node's candidates toward ``target``.
        """
        in_tree = embedding.parents
        if target not in in_tree or source not in in_tree:
            return None
        hops = next_hops.get(target)
        if hops is None:
            hops = next_hops[target] = {}
        path = [source]
        current = source
        while current != target:
            choices = hops.get(current)
            if choices is None:
                choices = self._closer_neighbors(embedding, current, target)
                hops[current] = choices
                self._next_hop_entries += 1
            if not choices:
                return None
            current = choices[0] if len(choices) == 1 else self.rng.choice(choices)
            path.append(current)
        return path

    def _route(self, transaction: Transaction) -> RoutingOutcome:
        if self._next_hop_entries >= _NEXT_HOP_LIMIT:
            self._drop_next_hops()
        share = transaction.amount / len(self._embeddings)
        shares: list[tuple[list[NodeId], float]] = []
        for embedding, next_hops in zip(self._embeddings, self._next_hops):
            path = self._greedy_path(
                embedding, next_hops, transaction.sender, transaction.receiver
            )
            if path is None:
                return RoutingOutcome.failure()
            shares.append((path, share))
        with self.view.open_session() as session:
            for path, amount in shares:
                if amount <= _EPS:
                    continue
                if not session.try_reserve(path, amount):
                    session.abort()
                    return RoutingOutcome.failure()
            session.commit()
        transfers = tuple((tuple(path), amount) for path, amount in shares)
        return RoutingOutcome(
            success=True,
            delivered=transaction.amount,
            transfers=transfers,
            fee=self.transfers_fee(list(transfers)),
        )
