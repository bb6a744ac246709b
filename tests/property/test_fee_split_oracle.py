"""Brute-force oracle for the fee-minimising split of program (1).

Flash sends an elephant over the paths Algorithm 1 probes and splits
the demand among them with the linear program of §3.2
(:func:`split_payment_lp`).  This suite pins that split against an
oracle that cannot be subtly wrong: the optimum of a linear program
lies on a vertex of its polytope, so the oracle rebuilds program (1)
from its definition and from the graph's ground truth (live balances,
each direction's own fee policy), solves the linear system of every
choice of active constraints, and keeps the cheapest feasible point.

Each trial runs Algorithm 1 between two random nodes of a seeded random
graph of at most 12 nodes with the paper's Fig-9 fee mix, picks a
demand up to the probed max flow, and checks:

* the split delivers the demand and never overdraws a channel
  direction, with a path's reverse hops netted against another path's
  forward ones (a forward hop consumes ``C(u, v)``, a reverse hop
  restores it);
* its cost equals the oracle's minimum, and its ``estimated_fee`` is
  that cost;
* the greedy fill of the Fig 9 baseline, and the max-flow paths' own
  flows scaled to the demand, never cost less than the oracle.

Everything is seeded stdlib :mod:`random`; any failure replays from its
seed.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.core.fee_optimizer import split_payment_greedy, split_payment_lp
from repro.core.maxflow import PathSearchResult, find_elephant_paths
from repro.errors import OptimizationError
from repro.network.fees import LinearFee, sample_paper_fee
from repro.network.graph import ChannelGraph
from repro.network.view import NetworkView

#: A flow below this is a probed-dead path, as in Algorithm 1.
_EPS = 1e-9


def _random_graph(rng: random.Random) -> ChannelGraph:
    """A connected ≤12-node graph; every direction has its own fee."""
    n = rng.randint(5, 12)
    graph = ChannelGraph()

    def open_channel(a: int, b: int) -> None:
        # Some directions are drained, so some paths probe dead.
        balances = [
            0.0 if rng.random() < 0.15 else rng.uniform(1, 60) for _ in "ab"
        ]
        graph.add_channel(
            a,
            b,
            *balances,
            fee_ab=sample_paper_fee(rng),
            fee_ba=sample_paper_fee(rng),
        )

    for i in range(1, n):
        open_channel(i, rng.randrange(i))
    for _ in range(rng.randint(n, 3 * n)):
        a, b = rng.sample(range(n), 2)
        if not graph.has_channel(a, b):
            open_channel(a, b)
    return graph


def _hops(path) -> list[tuple]:
    return list(zip(path, path[1:]))


def _path_rate(graph: ChannelGraph, path) -> float:
    """Fee per unit sent along ``path``: every hop charges its rate."""
    return sum(graph.fee_policy(u, v).rate for u, v in _hops(path))


def _net_use(path, u, v) -> int:
    """Units of ``u -> v`` balance one unit on ``path`` consumes."""
    hops = _hops(path)
    return hops.count((u, v)) - hops.count((v, u))


def _capacity_rows(graph: ChannelGraph, paths) -> tuple[list, list]:
    """Program (1)'s channel rows, one per direction some path consumes.

    A direction no path uses forward has no positive coefficient, so its
    row holds for every non-negative split and is left out.
    """
    directions = sorted(
        {d for path in paths for u, v in _hops(path) for d in ((u, v), (v, u))}
    )
    rows, bounds = [], []
    for u, v in directions:
        row = [_net_use(path, u, v) for path in paths]
        if any(use > 0 for use in row):
            rows.append(row)
            bounds.append(graph.balance(u, v))
    return rows, bounds


def _oracle(graph: ChannelGraph, paths, demand: float) -> float | None:
    """Minimum cost over every vertex of program (1), or None if empty."""
    n = len(paths)
    rows, bounds = _capacity_rows(graph, paths)
    # Inequalities ``a . x <= b``: the channel rows, then ``-x_p <= 0``.
    a_ub = np.vstack([np.array(rows).reshape(-1, n), -np.eye(n)])
    b_ub = np.array(bounds + [0.0] * n)
    cost = np.array([_path_rate(graph, path) for path in paths])
    tol = 1e-9 * max(1.0, demand)
    best = None
    # A vertex: the demand row plus n - 1 active inequalities, linearly
    # independent, and feasible for all the others.
    for active in itertools.combinations(range(len(b_ub)), n - 1):
        matrix = np.vstack([np.ones(n), a_ub[list(active)]])
        if abs(np.linalg.det(matrix)) < 1e-12:
            continue
        rhs = np.concatenate([[demand], b_ub[list(active)]])
        x = np.linalg.solve(matrix, rhs)
        if np.all(a_ub @ x <= b_ub + tol):
            value = float(cost @ x)
            if best is None or value < best:
                best = value
    return best


def _cost(graph: ChannelGraph, transfers) -> float:
    return sum(_path_rate(graph, path) * amount for path, amount in transfers)


def _assert_feasible(graph: ChannelGraph, split, demand: float) -> None:
    tol = 1e-6 * max(1.0, demand)
    assert split.total == pytest.approx(demand, rel=1e-9, abs=1e-9)
    assert all(amount > 0.0 for _, amount in split.transfers)
    paths = [path for path, _ in split.transfers]
    for u, v in {hop for path in paths for hop in _hops(path)}:
        net = sum(
            amount * _net_use(path, u, v) for path, amount in split.transfers
        )
        assert net <= graph.balance(u, v) + tol


@pytest.mark.parametrize("seed", range(25))
def test_lp_split_matches_vertex_enumeration(seed):
    rng = random.Random(905_000 + seed)
    graph = _random_graph(rng)
    for _ in range(6):
        source, target = rng.sample(graph.nodes, 2)
        search = find_elephant_paths(
            graph.compact(),
            NetworkView(graph),
            source,
            target,
            1e9,
            rng.choice([2, 3, 4]),
        )
        paths = [p for p, f in zip(search.paths, search.flows) if f > _EPS]
        if not paths:
            with pytest.raises(OptimizationError):
                split_payment_lp(search, 1.0)
            continue
        demand = search.max_flow * rng.choice([0.2, 0.5, 0.9, 1.0])
        best = _oracle(graph, paths, demand)
        assert best is not None  # the max-flow paths' own flows fit

        split = split_payment_lp(search, demand)
        _assert_feasible(graph, split, demand)
        assert {path for path, _ in split.transfers} <= set(map(tuple, paths))
        lp_cost = _cost(graph, split.transfers)
        assert lp_cost == pytest.approx(best, rel=1e-7, abs=1e-9)
        assert split.estimated_fee == pytest.approx(lp_cost, rel=1e-9)

        greedy = split_payment_greedy(search, demand)
        _assert_feasible(graph, greedy, demand)
        assert _cost(graph, greedy.transfers) >= best - 1e-9
        scale = demand / search.max_flow
        flows = [
            (p, f * scale) for p, f in zip(search.paths, search.flows)
        ]
        assert _cost(graph, flows) >= best - 1e-9


def test_reverse_hops_net_out():
    # Two paths cross the zero-balance channel a - b in opposite
    # directions.  Only netted, with equal amounts on both, do they fit,
    # although the first path is five times cheaper.
    graph = ChannelGraph()
    cheap, pricey = LinearFee(rate=0.01), LinearFee(rate=0.05)
    graph.add_channel("s", "a", 10.0, 0.0, fee_ab=cheap)
    graph.add_channel("a", "b", 0.0, 0.0, fee_ab=cheap, fee_ba=pricey)
    graph.add_channel("b", "t", 10.0, 0.0, fee_ab=cheap)
    graph.add_channel("s", "b", 10.0, 0.0, fee_ab=pricey)
    graph.add_channel("a", "t", 10.0, 0.0, fee_ab=pricey)
    paths = [["s", "a", "b", "t"], ["s", "b", "a", "t"]]
    search = PathSearchResult(demand=12.0)
    search.paths = paths
    search.flows = [6.0, 6.0]
    search.max_flow = 12.0
    for path in paths:
        for u, v in _hops(path):
            search.capacity[(u, v)] = graph.balance(u, v)
            search.capacity[(v, u)] = graph.balance(v, u)
            search.fees[(u, v)] = graph.fee_policy(u, v)

    best = _oracle(graph, paths, 12.0)
    assert best == pytest.approx(6.0 * 0.03 + 6.0 * 0.15)
    split = split_payment_lp(search, 12.0)
    amounts = dict(split.transfers)
    assert amounts[tuple(paths[0])] == pytest.approx(6.0)
    assert amounts[tuple(paths[1])] == pytest.approx(6.0)
    assert _cost(graph, split.transfers) == pytest.approx(best)
