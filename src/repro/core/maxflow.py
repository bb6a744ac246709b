"""Algorithm 1: modified Edmonds–Karp path finding for elephant payments.

The standard Edmonds–Karp algorithm needs the full weighted graph up
front; in a PCN the weights (channel balances) are unknown until probed.
Flash's modification (§3.2) interleaves probing with the augmenting-path
search:

1. BFS over the *structural* topology, restricted to edges whose residual
   capacity is still positive — edges never probed are assumed positive;
2. probe the discovered path (one message per hop), learning the live
   balance of each channel in both directions the first time it is seen;
3. augment along the path by its residual bottleneck and update the
   residual matrix exactly as Edmonds–Karp would (forward decrease,
   reverse increase).

The loop stops after at most ``k`` paths, so the probing overhead is
bounded by ``k`` path probes instead of ``O(|V||E|)`` iterations.

Internally the search runs on a
:class:`~repro.network.compact.CompactTopology`: the residual/capacity
matrix is a flat float list indexed by directed-edge *slot* id, and the
reverse edge of every hop is an O(1) ``reverse_slot`` lookup — no
``(NodeId, NodeId)`` tuple hashing on the hot path.  The probed capacity
and fee maps returned to callers keep their node-tuple keys.

Kernel selection happens inside the topology, not here: the augmenting
loop calls ``shortest_path_residual``, which always runs the serial
(bidirectional above the threshold) search — measured on BA-1k..50k,
vectorizing the single-pair residual probe loses 10-20x because the
search touches a tiny fraction of the graph while every frontier would
pay ndarray call overhead.  The residual/stamp scratch is therefore a
plain float list; only the full sweeps
(``distances_idx``/``bfs_tree``) vectorize, on large graphs
(see :attr:`CompactTopology.VECTOR_SWEEP_MIN_NODES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.channel import NodeId
from repro.network.fees import FeePolicy
from repro.network.paths import Adjacency, _interned
from repro.network.view import NetworkView

_EPS = 1e-9

DirectedEdge = tuple[NodeId, NodeId]
Path = list[NodeId]


@dataclass
class PathSearchResult:
    """Output of Algorithm 1.

    ``paths`` are the (at most ``k``) BFS augmenting paths in discovery
    order; ``flows`` the bottleneck flow pushed on each; ``capacity`` the
    probed capacity matrix ``C`` (both directions of every probed
    channel); ``fees`` the fee policy of every probed directed channel.
    ``max_flow`` is their sum, and ``satisfied`` says whether it covers the
    demand — Algorithm 1 returns ∅ otherwise, but we keep the partial
    result so callers can inspect near-misses.
    """

    paths: list[Path] = field(default_factory=list)
    flows: list[float] = field(default_factory=list)
    capacity: dict[DirectedEdge, float] = field(default_factory=dict)
    fees: dict[DirectedEdge, FeePolicy] = field(default_factory=dict)
    max_flow: float = 0.0
    demand: float = 0.0

    @property
    def satisfied(self) -> bool:
        return self.max_flow + _EPS >= self.demand


def find_elephant_paths(
    topology: Adjacency,
    view: NetworkView,
    source: NodeId,
    target: NodeId,
    demand: float,
    k: int,
) -> PathSearchResult:
    """Run Algorithm 1: probe up to ``k`` augmenting paths for ``demand``.

    ``view`` is used only for probing (messages are counted there); the
    search never reads ground-truth balances directly.  ``topology`` is
    a :class:`~repro.network.compact.CompactTopology` or a mapping, which
    is interned once per call; endpoints follow the rule of
    :mod:`repro.network.paths`.  A self-payment has no hop to probe, so
    it finds no path and sends no probe.
    """
    if demand < 0:
        raise ValueError(f"negative demand {demand!r}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    result = PathSearchResult(demand=demand)
    interned = _interned(topology, source, target)
    if interned is None:
        return result
    ct, (src, dst) = interned
    if src == dst:
        return result

    capacity = result.capacity
    nodes = ct.nodes
    reverse_slot = ct.reverse_slot
    # Flat residual matrix indexed by slot, borrowed from the topology's
    # epoch-stamped scratch so no O(num_slots) buffer is allocated per
    # payment.  A slot is probed iff ``stamp[slot] == flow_epoch``;
    # unprobed slots are assumed to have positive capacity (§3.2: "our
    # algorithm works without the capacity matrix as input by assuming
    # each channel has non-zero capacity").
    residual, stamp, flow_epoch = ct.flow_scratch()

    while len(result.paths) < k:
        found = ct.shortest_path_residual(
            src, dst, residual, stamp, flow_epoch, _EPS
        )
        if found is None:
            break
        idx_path, slot_path = found
        path = [nodes[i] for i in idx_path]
        probe = view.probe_path(path)
        # Record C[u, v] and C[v, u] the first time each channel is seen.
        for hop, slot in enumerate(slot_path):
            if stamp[slot] != flow_epoch:
                stamp[slot] = flow_epoch
                residual[slot] = probe.balances[hop]
                capacity[(path[hop], path[hop + 1])] = probe.balances[hop]
            rev = reverse_slot[slot]
            if rev >= 0 and stamp[rev] != flow_epoch:
                stamp[rev] = flow_epoch
                residual[rev] = probe.reverse_balances[hop]
                capacity[(path[hop + 1], path[hop])] = probe.reverse_balances[
                    hop
                ]
        for hop, policy in enumerate(probe.fees):
            result.fees.setdefault((path[hop], path[hop + 1]), policy)

        # Bottleneck over the *residual* capacities, which account for the
        # flow already committed to earlier paths.
        bottleneck = min(residual[slot] for slot in slot_path)
        result.paths.append(path)
        result.flows.append(bottleneck)
        if bottleneck > _EPS:
            result.max_flow += bottleneck
            for slot in slot_path:
                residual[slot] -= bottleneck
                rev = reverse_slot[slot]
                if rev >= 0:
                    residual[rev] += bottleneck
        else:
            # A probed-dead path (effective capacity zero): mark it so BFS
            # will not rediscover it, and keep searching.
            for slot in slot_path:
                if residual[slot] <= _EPS:
                    residual[slot] = 0.0
        if result.max_flow + _EPS >= demand:
            break
    return result
