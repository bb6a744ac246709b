"""Path selection for elephants: fee-minimizing payment splitting (§3.2).

Given the path set ``P`` and probed capacity matrix ``C`` from Algorithm 1,
Flash chooses how much of the demand to route on each path by solving
optimization program (1):

    minimize    sum_p sum_{(u,v) in p} f_{u,v}(r_p)
    subject to  sum_p r_p = d
                sum_{p ni (u,v)} r_p - sum_{p ni (v,u)} r_p <= C(u,v)

The paper only asks ``f`` to be convex; every fee policy here is linear
(a base fee plus a proportional rate, §3.2), so the program is an LP,
solved with ``scipy.optimize.linprog`` (HiGHS).  A greedy sequential
filler provides both the fallback when the solver fails and the "w/o
optimization" baseline of Fig 9, which uses paths in discovery order
until the demand is met.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.maxflow import DirectedEdge, Path, PathSearchResult
from repro.errors import OptimizationError
from repro.network.fees import FeePolicy

_EPS = 1e-9

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PaymentSplit:
    """Amounts assigned to each path (zero-amount paths are dropped)."""

    transfers: tuple[tuple[tuple, float], ...]
    total: float
    estimated_fee: float

    @property
    def num_paths(self) -> int:
        return len(self.transfers)


def _path_rate(path: Path, fees: dict[DirectedEdge, FeePolicy], amount: float) -> float:
    """Sum of marginal fee rates along ``path`` at routed volume ``amount``."""
    rate = 0.0
    for u, v in zip(path, path[1:]):
        policy = fees.get((u, v))
        if policy is not None:
            rate += policy.marginal_rate(amount)
    return rate


def _path_fee(path: Path, fees: dict[DirectedEdge, FeePolicy], amount: float) -> float:
    total = 0.0
    for u, v in zip(path, path[1:]):
        policy = fees.get((u, v))
        if policy is not None:
            total += policy.fee(amount)
    return total


def _channel_constraints(
    paths: list[Path], capacity: dict[DirectedEdge, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Build the netted capacity constraint rows of program (1)."""
    edges = sorted(
        {edge for path in paths for edge in zip(path, path[1:])},
        key=repr,
    )
    edge_index = {edge: row for row, edge in enumerate(edges)}
    a_ub = np.zeros((len(edges), len(paths)))
    b_ub = np.zeros(len(edges))
    for (u, v), row in edge_index.items():
        b_ub[row] = capacity.get((u, v), 0.0)
        for col, path in enumerate(paths):
            hops = list(zip(path, path[1:]))
            # Forward usage consumes capacity; reverse usage restores it.
            a_ub[row, col] = hops.count((u, v)) - hops.count((v, u))
    return a_ub, b_ub


def split_payment_lp(
    search: PathSearchResult,
    demand: float,
) -> PaymentSplit:
    """Solve program (1) as a linear program (fees linearized at demand).

    Raises :class:`OptimizationError` when the program is infeasible or
    the solver fails; callers typically fall back to the greedy split.
    """
    from scipy.optimize import linprog

    paths = [path for path, flow in zip(search.paths, search.flows) if flow > _EPS]
    if not paths:
        raise OptimizationError("no usable paths to split over")
    # Marginal rates evaluated at an even split give the LP cost vector; for
    # LinearFee policies the rate is constant so the point does not matter.
    probe_point = demand / len(paths)
    cost = np.array([_path_rate(path, search.fees, probe_point) for path in paths])
    a_ub, b_ub = _channel_constraints(paths, search.capacity)
    a_eq = np.ones((1, len(paths)))
    b_eq = np.array([demand])
    solution = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * len(paths),
        method="highs",
    )
    if not solution.success:
        raise OptimizationError(f"linprog failed: {solution.message}")
    amounts = np.maximum(solution.x, 0.0)
    return _build_split(paths, list(amounts), search.fees)


def split_payment_greedy(
    search: PathSearchResult,
    demand: float,
) -> PaymentSplit:
    """Sequential fill in path-discovery order (the Fig 9 baseline).

    Uses each path up to its residual bottleneck until the demand is met —
    exactly "the paths are used sequentially as they are found by our
    modified Edmonds-Karp algorithm until the demand is met" (§4.3).
    """
    residual = dict(search.capacity)
    transfers: list[tuple[Path, float]] = []
    remaining = demand
    for path in search.paths:
        if remaining <= _EPS:
            break
        hops = list(zip(path, path[1:]))
        bottleneck = min(residual.get((u, v), 0.0) for u, v in hops)
        amount = min(bottleneck, remaining)
        if amount <= _EPS:
            continue
        for u, v in hops:
            residual[(u, v)] = residual.get((u, v), 0.0) - amount
            residual[(v, u)] = residual.get((v, u), 0.0) + amount
        transfers.append((path, amount))
        remaining -= amount
    if remaining > max(_EPS, 1e-6 * demand):
        raise OptimizationError(
            f"greedy split left {remaining!r} of demand {demand!r} unassigned"
        )
    paths = [path for path, _ in transfers]
    amounts = [amount for _, amount in transfers]
    return _build_split(paths, amounts, search.fees)


def split_payment(
    search: PathSearchResult,
    demand: float,
    optimize_fees: bool = True,
) -> PaymentSplit:
    """Front door: LP split with greedy fallback.

    A fallback is logged at WARNING with the solver's error text.
    """
    if not optimize_fees:
        return split_payment_greedy(search, demand)
    try:
        return split_payment_lp(search, demand)
    except OptimizationError as error:
        _log.warning(
            "fee-minimising split failed, using the greedy split: %s", error
        )
        return split_payment_greedy(search, demand)


def _build_split(
    paths: list[Path],
    amounts: list[float],
    fees: dict[DirectedEdge, FeePolicy],
) -> PaymentSplit:
    transfers = []
    estimated_fee = 0.0
    for path, amount in zip(paths, amounts):
        if amount <= _EPS:
            continue
        transfers.append((tuple(path), amount))
        estimated_fee += _path_fee(path, fees, amount)
    total = sum(amount for _, amount in transfers)
    return PaymentSplit(
        transfers=tuple(transfers), total=total, estimated_fee=estimated_fee
    )
