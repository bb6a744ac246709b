"""The SpeedyMurmurs walk and gossip hook as they were before the memo.

:class:`~repro.baselines.speedymurmurs.SpeedyMurmursRouter` memoizes each
node's next-hop candidates per (tree, target), and it keeps its
embeddings across a gossip tick that hands back the snapshot it already
embedded.  The router below does neither, and shares no walk code with
it:

* ``_greedy_path`` rescans the current node's neighbors at every step,
  skipping the nodes already walked;
* ``on_topology_update`` re-embeds every spanning tree on every tick.

``tests/baselines/test_speedymurmurs_memo.py`` routes the same payments
through both and checks that they agree after every payment.
"""

from __future__ import annotations

from repro.baselines.speedymurmurs import (
    SpeedyMurmursRouter,
    _TreeCoordinates,
    tree_distance,
)
from repro.network.channel import NodeId


class ReferenceSpeedyMurmursRouter(SpeedyMurmursRouter):
    """SpeedyMurmurs with the memo-free walk and the unconditional re-embed."""

    def on_topology_update(self, events=None) -> None:
        self._topology = self.view.compact_topology()
        self._build_embeddings()

    def _greedy_path(
        self,
        embedding: _TreeCoordinates,
        next_hops: dict,
        source: NodeId,
        target: NodeId,
    ) -> list[NodeId] | None:
        """Greedy strictly-decreasing-distance walk; None if stuck.

        ``next_hops`` (the router's memo) is ignored.
        """
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
