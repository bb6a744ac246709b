"""Tests for program (1): fee-minimizing payment splitting."""

import logging

import pytest

from repro.core import fee_optimizer
from repro.core.fee_optimizer import (
    split_payment,
    split_payment_greedy,
    split_payment_lp,
)
from repro.core.maxflow import PathSearchResult
from repro.errors import OptimizationError
from repro.network.fees import LinearFee


def two_path_search(cheap_rate=0.01, pricey_rate=0.05, cap=100.0):
    """Two disjoint 2-hop paths 0->1->3 (cheap) and 0->2->3 (pricey)."""
    search = PathSearchResult(demand=0.0)
    search.paths = [[0, 1, 3], [0, 2, 3]]
    search.flows = [cap, cap]
    search.max_flow = 2 * cap
    for u, v in [(0, 1), (1, 3)]:
        search.capacity[(u, v)] = cap
        search.fees[(u, v)] = LinearFee(rate=cheap_rate)
    for u, v in [(0, 2), (2, 3)]:
        search.capacity[(u, v)] = cap
        search.fees[(u, v)] = LinearFee(rate=pricey_rate)
    return search


class TestLpSplit:
    def test_prefers_cheap_path(self):
        split = split_payment_lp(two_path_search(), demand=80.0)
        amounts = dict(split.transfers)
        assert amounts[(0, 1, 3)] == pytest.approx(80.0)
        assert (0, 2, 3) not in amounts

    def test_spills_to_pricey_path_when_needed(self):
        split = split_payment_lp(two_path_search(), demand=150.0)
        amounts = dict(split.transfers)
        assert amounts[(0, 1, 3)] == pytest.approx(100.0)
        assert amounts[(0, 2, 3)] == pytest.approx(50.0)

    def test_total_meets_demand(self):
        split = split_payment_lp(two_path_search(), demand=123.0)
        assert split.total == pytest.approx(123.0)

    def test_respects_channel_capacity(self):
        split = split_payment_lp(two_path_search(cap=60.0), demand=100.0)
        for _, amount in split.transfers:
            assert amount <= 60.0 + 1e-6

    def test_infeasible_demand_raises(self):
        with pytest.raises(OptimizationError):
            split_payment_lp(two_path_search(cap=10.0), demand=100.0)

    def test_estimated_fee_matches_policy(self):
        split = split_payment_lp(two_path_search(), demand=50.0)
        # 50 on the cheap path: 2 hops at 1% each.
        assert split.estimated_fee == pytest.approx(2 * 0.01 * 50.0)

    def test_shared_channel_constraint(self):
        """Two paths sharing one channel cannot jointly exceed it."""
        search = PathSearchResult()
        search.paths = [[0, 1, 2], [0, 1, 3]]
        search.flows = [50.0, 50.0]
        search.capacity = {
            (0, 1): 60.0,
            (1, 2): 100.0,
            (1, 3): 100.0,
        }
        search.fees = {edge: LinearFee(rate=0.01) for edge in search.capacity}
        with pytest.raises(OptimizationError):
            split_payment_lp(search, demand=100.0)
        split = split_payment_lp(search, demand=55.0)
        assert split.total == pytest.approx(55.0)

    def test_no_usable_paths_raises(self):
        search = PathSearchResult()
        search.paths = [[0, 1]]
        search.flows = [0.0]
        with pytest.raises(OptimizationError):
            split_payment_lp(search, demand=10.0)


class TestGreedySplit:
    def test_discovery_order(self):
        # Greedy must use the pricey-first order if discovered first.
        search = two_path_search()
        search.paths.reverse()
        search.flows.reverse()
        split = split_payment_greedy(search, demand=80.0)
        amounts = dict(split.transfers)
        assert amounts[(0, 2, 3)] == pytest.approx(80.0)

    def test_fills_sequentially(self):
        split = split_payment_greedy(two_path_search(), demand=150.0)
        amounts = dict(split.transfers)
        assert amounts[(0, 1, 3)] == pytest.approx(100.0)
        assert amounts[(0, 2, 3)] == pytest.approx(50.0)

    def test_greedy_never_cheaper_than_lp(self):
        search = two_path_search()
        search.paths.reverse()
        search.flows.reverse()
        greedy = split_payment_greedy(search, demand=80.0)
        lp = split_payment_lp(search, demand=80.0)
        assert lp.estimated_fee <= greedy.estimated_fee + 1e-9

    def test_infeasible_raises(self):
        with pytest.raises(OptimizationError):
            split_payment_greedy(two_path_search(cap=10.0), demand=100.0)


class TestFrontDoor:
    def test_optimize_false_uses_greedy_order(self):
        search = two_path_search()
        search.paths.reverse()
        search.flows.reverse()
        split = split_payment(search, 80.0, optimize_fees=False)
        assert dict(split.transfers)[(0, 2, 3)] == pytest.approx(80.0)

    def test_optimize_true_uses_lp(self):
        search = two_path_search()
        search.paths.reverse()
        search.flows.reverse()
        split = split_payment(search, 80.0, optimize_fees=True)
        assert dict(split.transfers)[(0, 1, 3)] == pytest.approx(80.0)

    def test_solver_failure_falls_back_to_greedy_with_a_warning(
        self, monkeypatch, caplog
    ):
        def failing(search, demand):
            raise OptimizationError("solver gave up")

        monkeypatch.setattr(fee_optimizer, "split_payment_lp", failing)
        search = two_path_search()
        search.paths.reverse()
        search.flows.reverse()
        with caplog.at_level(logging.WARNING, logger=fee_optimizer.__name__):
            split = split_payment(search, 80.0, optimize_fees=True)
        # Greedy takes the (now first) pricey path, which the LP would not.
        assert split == split_payment_greedy(search, 80.0)
        assert dict(split.transfers)[(0, 2, 3)] == pytest.approx(80.0)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "solver gave up" in record.getMessage()
