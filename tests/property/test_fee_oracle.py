"""Brute-force differential oracle for the cheapest-feasible-path kernel.

:meth:`CompactTopology.cheapest_path_idx` is a backward Dijkstra over
the BOLT #7 fee recursion with per-edge htlc feasibility pruning — the
kind of kernel whose bugs (wrong fee association, off-by-one hop
charging, pruning the wrong direction's bounds) produce *plausible*
paths that are silently not the cheapest.  This suite pins it against
an oracle that cannot be subtly wrong: enumerate **every** simple path
on seeded random graphs small enough to exhaust (≤ 12 nodes), price
each with the same arithmetic :func:`hop_amounts` defines, and take the
minimum under the kernel's documented tie-break — (send total, hop
count, lexicographic dense-index path).

Checked per trial:

* the kernel finds a path iff the oracle does;
* path, send total, and tie-break winner match the oracle **exactly**
  (floats compared with ``==``: same association ⇒ same bits);
* amounts straddle the drawn ``htlc_min``/``htlc_max`` boundaries, so
  both prune branches are exercised (feasible and infeasible edges).

Everything is seeded stdlib :mod:`random`; any failure replays from its
seed.
"""

from __future__ import annotations

import random

import pytest

from repro.network.compact import CompactTopology
from repro.network.fees import ChannelPolicy
from repro.network.graph import ChannelGraph
from repro.network.paths import cheapest_path

#: Amounts chosen to straddle the htlc boundary values drawn in
#: :func:`_random_priced_graph` (hmin ∈ {0, 2, 5, 10}, hmax ∈
#: {8, 20, inf}): below every bound, between them, on them, above them.
AMOUNTS = (1.0, 2.0, 5.0, 8.0, 10.0, 12.5, 20.0, 25.0)


def _random_priced_graph(rng: random.Random) -> ChannelGraph:
    """A connected ≤12-node graph with random per-direction policies."""
    n = rng.randint(4, 12)
    nodes = [f"n{i}" for i in range(n)]
    graph = ChannelGraph()
    for i in range(1, n):
        j = rng.randrange(i)
        graph.add_channel(
            nodes[i], nodes[j], rng.uniform(40, 100), rng.uniform(40, 100)
        )
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(nodes, 2)
        if not graph.has_channel(a, b):
            graph.add_channel(a, b, rng.uniform(40, 100), rng.uniform(40, 100))
    for channel in graph.channels():
        a, b = channel.endpoints()
        for src, dst in ((a, b), (b, a)):
            if rng.random() < 0.25:
                continue  # leave some directions at the default policy
            hmin = rng.choice([0.0, 0.0, 2.0, 5.0, 10.0])
            hmax = rng.choice(
                [float("inf"), float("inf"), 20.0, max(hmin, 8.0)]
            )
            graph.set_channel_policy(
                src,
                dst,
                ChannelPolicy(
                    base_fee=rng.choice([0.0, 0.1, 0.5, 1.0]),
                    fee_rate=rng.choice([0.0, 0.001, 0.01, 0.05]),
                    htlc_min=hmin,
                    htlc_max=hmax,
                ),
            )
    return graph


def _snapshot(graph: ChannelGraph) -> CompactTopology:
    snapshot = CompactTopology.from_adjacency(graph.adjacency())
    snapshot.install_policies(
        graph.channel_policy, version=graph.policy_version
    )
    return snapshot


def _price(graph: ChannelGraph, path: list, amount: float) -> float | None:
    """Send total of one candidate path — or None when htlc-infeasible.

    Mirrors the kernel's pricing *exactly*: the fee of each edge is
    computed first and then added (the float association bit-identity
    depends on), the sender's own edge charges nothing, ``htlc_min`` is
    checked against the delivered amount and ``htlc_max`` against the
    amount the edge actually carries.
    """
    carried = amount
    for j in range(len(path) - 2, -1, -1):
        policy = graph.channel_policy(path[j], path[j + 1])
        if amount < policy.htlc_min or carried > policy.htlc_max:
            return None
        if j > 0 and carried > 0.0:
            fee = policy.base_fee + policy.fee_rate * carried
            carried = carried + fee
    return carried


def _oracle(
    graph: ChannelGraph,
    snapshot: CompactTopology,
    source,
    target,
    amount: float,
) -> tuple[float, int, tuple[int, ...], list] | None:
    """Exhaustive minimum over every simple path, kernel tie-break."""
    index = {node: snapshot.index_of(node) for node in graph.nodes}
    best = None
    stack = [(source, [source])]
    while stack:
        node, path = stack.pop()
        if node == target:
            total = _price(graph, path, amount)
            if total is None:
                continue
            key = (
                total,
                len(path) - 1,
                tuple(index[step] for step in path),
            )
            if best is None or key < best[:3]:
                best = (*key, path)
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in path:
                stack.append((neighbor, path + [neighbor]))
    return best


class TestCheapestPathOracle:
    """Kernel == enumerate-all-paths on every (seed, amount)."""

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = random.Random(900_000 + seed)
        graph = _random_priced_graph(rng)
        snapshot = _snapshot(graph)
        nodes = graph.nodes
        for amount in AMOUNTS:
            source, target = rng.sample(nodes, 2)
            # graph.compact() installs policies itself; it must agree
            # with the explicitly-installed snapshot.
            found = cheapest_path(graph.compact(), source, target, amount)
            kernel = cheapest_path(snapshot, source, target, amount)
            assert found == kernel
            expected = _oracle(graph, snapshot, source, target, amount)
            if expected is None:
                assert kernel is None
                continue
            total, hops, _, path = expected
            assert kernel is not None
            assert kernel[0] == path
            assert kernel[1] == total  # exact: same float association
            assert len(kernel[0]) - 1 == hops

    def test_htlc_boundaries_are_inclusive(self):
        # One hand-built corridor pinning the boundary semantics the
        # fuzz relies on: delivering exactly htlc_min and carrying
        # exactly htlc_max are both feasible; one ulp past either isn't
        # routable on this single-path graph.
        graph = ChannelGraph()
        graph.add_channel("a", "b", 100.0, 100.0)
        graph.add_channel("b", "c", 100.0, 100.0)
        graph.set_channel_policy(
            "b", "c", ChannelPolicy(htlc_min=5.0, htlc_max=10.0)
        )
        snapshot = _snapshot(graph)
        assert cheapest_path(snapshot, "a", "c", 5.0) is not None
        assert cheapest_path(snapshot, "a", "c", 10.0) is not None
        assert cheapest_path(snapshot, "a", "c", 4.999999) is None
        assert cheapest_path(snapshot, "a", "c", 10.000001) is None
