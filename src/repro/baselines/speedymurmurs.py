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
"""

from __future__ import annotations

import heapq
import random

from repro.core.base import Router, RoutingOutcome
from repro.network.channel import NodeId
from repro.network.paths import bfs_tree_parents
from repro.network.view import NetworkView
from repro.traces.workload import Transaction

_EPS = 1e-9

#: Number of landmarks/trees ([29] via §4.1).
SPEEDYMURMURS_LANDMARKS = 3

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

    def __init__(self, parents: dict[NodeId, NodeId], root: NodeId) -> None:
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
        self._build_embeddings()

    def _build_embeddings(self) -> None:
        """Pick the highest-degree nodes as landmarks (as in [29]) and embed.

        Landmarks rank by degree, then ``repr``, exactly as sorting every
        node would; each tree's coordinates are computed as routing
        reads them.
        """
        topology = self._topology
        degree = topology.degree_idx
        keys = topology.repr_keys
        landmarks = heapq.nsmallest(
            self.num_landmarks,
            range(topology.num_nodes),
            key=lambda i: (-degree(i), keys[i]),
        )
        nodes = topology.nodes
        self._embeddings = [
            _TreeCoordinates(bfs_tree_parents(topology, nodes[i]), nodes[i])
            for i in landmarks
        ]

    def on_topology_update(self, events=None) -> None:
        """Re-embed all spanning trees on the gossiped topology.

        Tree embeddings are global (any structural change can move
        coordinates), so this router keeps the wholesale rebuild; the
        ``events`` batch is accepted for hook uniformity.
        """
        self._topology = self.view.compact_topology()
        self._build_embeddings()

    def _greedy_path(
        self, embedding: _TreeCoordinates, source: NodeId, target: NodeId
    ) -> list[NodeId] | None:
        """Greedy strictly-decreasing-distance walk; None if stuck."""
        in_tree = embedding.parents
        if target not in in_tree or source not in in_tree:
            return None
        target_coord = embedding[target]
        path = [source]
        current = source
        visited = {source}
        while current != target:
            current_distance = tree_distance(embedding[current], target_coord)
            candidates = []
            for neighbor in self._topology[current]:
                if neighbor in visited or neighbor not in in_tree:
                    continue
                distance = tree_distance(embedding[neighbor], target_coord)
                if distance < current_distance:
                    candidates.append((distance, neighbor))
            if not candidates:
                return None
            best = min(distance for distance, _ in candidates)
            choices = [n for distance, n in candidates if distance == best]
            nxt = choices[0] if len(choices) == 1 else self.rng.choice(choices)
            path.append(nxt)
            visited.add(nxt)
            current = nxt
        return path

    def _route(self, transaction: Transaction) -> RoutingOutcome:
        share = transaction.amount / len(self._embeddings)
        shares: list[tuple[list[NodeId], float]] = []
        for embedding in self._embeddings:
            path = self._greedy_path(
                embedding, transaction.sender, transaction.receiver
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
