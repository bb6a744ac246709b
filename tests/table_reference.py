"""The routing table's re-ranking as it was before Yen runs were deferred.

:class:`~repro.core.routing_table.RoutingTable` re-ranks a stale entry
by reading its first path off the sender's BFS layer at batch time and
deferring the Yen run that ranks the rest to the entry's first read.
The table below keeps the earlier ``refresh`` and ``apply_events``
verbatim: every stale entry runs Yen at once, on the batch's topology.
Lookups and replacements are inherited; its entries are never deferred,
so they are the plain attribute reads they were.

``tests/property/test_deferred_ranking.py`` drives both through the same
histories and checks that they agree after every step.
"""

from __future__ import annotations

from repro.core.routing_table import RoutingTable
from repro.network.dynamics import ChannelEventType


class ImmediateTable(RoutingTable):
    """The routing table that re-ranks every stale entry at once."""

    def refresh(self, topology) -> None:
        self.invalidate_structural_cache()
        for (sender, receiver), entry in list(self._entries.items()):
            entry.yen = None
            paths = self._ranked_paths(sender, receiver, topology, self.m)
            entry.paths = paths
            entry.yen_cursor = len(paths)

    def apply_events(self, events, topology) -> tuple[int, int]:
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
        dropped = set()
        for sender, layer in list(self._source_layers.items()):
            if self._layer_touched(layer, closes, opens):
                del self._source_layers[sender]
                dropped.add(sender)
            else:
                layer.topology = topology
        closed_channels = {frozenset((a, b)) for a, b in closes}
        layerless = {
            sender
            for sender, _receiver in self._entries
            if sender not in self._source_layers
        }
        recomputed = 0
        for (sender, receiver), entry in list(self._entries.items()):
            entry.yen = None
            stale = sender in dropped
            if not stale and opens and sender in layerless:
                stale = True
            if not stale and closed_channels:
                stale = any(
                    frozenset((u, v)) in closed_channels
                    for path in entry.paths
                    for u, v in zip(path, path[1:])
                )
            if stale:
                paths = self._ranked_paths(sender, receiver, topology, self.m)
                entry.paths = paths
                entry.yen_cursor = len(paths)
                recomputed += 1
        return len(dropped), recomputed
