"""Seeded property tests for the BOLT #7 fee arithmetic.

:func:`hop_amounts` is the single definition of "what a path costs" —
the escrow layer, the fee optimizer and the metrics all reduce to
it.  These properties pin its algebra on random
policy vectors so a refactor of any consumer can lean on the shared
contract:

* zero policies cost exactly zero (bit-exact, not approximately);
* the sender's own edge never charges;
* the backward recursion matches its definition hop by hop, with the
  exact float association (fee computed first, then added);
* per-hop fees telescope to the total fee, and the total is monotone
  non-decreasing in the delivered amount;
* :func:`fee_breakdown` conserves: intermediaries pocket exactly what
  the sender overpays, nothing is minted or burned;
* :meth:`ChannelGraph.path_fee` compounds on policy-aware graphs and
  keeps the legacy flat sum on policy-free ones.
"""

from __future__ import annotations

import random

import pytest

from repro.network.fees import (
    DEFAULT_POLICY,
    ChannelPolicy,
    fee_breakdown,
    hop_amounts,
)
from repro.network.graph import ChannelGraph, assign_uniform_fees


def _random_policies(
    rng: random.Random, hops: int
) -> list[ChannelPolicy]:
    return [
        ChannelPolicy(
            base_fee=rng.choice([0.0, 0.05, 0.5, 2.0]),
            fee_rate=rng.choice([0.0, 0.001, 0.01, 0.1]),
        )
        for _ in range(hops)
    ]


class TestHopAmounts:
    def test_zero_policies_cost_exactly_zero(self):
        for hops in range(1, 6):
            amounts = hop_amounts([DEFAULT_POLICY] * hops, 37.5)
            assert amounts == [37.5] * hops

    def test_sender_edge_charges_nothing(self):
        # A direct payment has only the sender's own edge — no fee,
        # whatever that edge's policy says.
        policy = ChannelPolicy(base_fee=5.0, fee_rate=0.5)
        assert hop_amounts([policy], 10.0) == [10.0]

    @pytest.mark.parametrize("seed", range(20))
    def test_recursion_matches_definition(self, seed):
        rng = random.Random(1_100 + seed)
        policies = _random_policies(rng, rng.randint(1, 8))
        amount = rng.choice([0.5, 10.0, 500.0])
        amounts = hop_amounts(policies, amount)
        assert len(amounts) == len(policies)
        assert amounts[-1] == amount
        for i in range(1, len(policies)):
            # Exact, including association: fee first, then one add.
            assert amounts[i - 1] == amounts[i] + policies[i].fee(amounts[i])

    @pytest.mark.parametrize("seed", range(20))
    def test_hop_fees_telescope_to_total(self, seed):
        rng = random.Random(1_200 + seed)
        policies = _random_policies(rng, rng.randint(2, 8))
        amount = rng.choice([1.0, 42.0, 900.0])
        amounts = hop_amounts(policies, amount)
        per_hop = [
            amounts[i - 1] - amounts[i] for i in range(1, len(amounts))
        ]
        assert all(fee >= 0.0 for fee in per_hop)
        assert sum(per_hop) == pytest.approx(
            amounts[0] - amount, rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_total_monotone_in_amount(self, seed):
        rng = random.Random(1_300 + seed)
        policies = _random_policies(rng, rng.randint(1, 8))
        totals = [
            hop_amounts(policies, amount)[0]
            for amount in (0.1, 1.0, 10.0, 100.0, 1000.0)
        ]
        assert totals == sorted(totals)


class TestFeeBreakdown:
    @pytest.mark.parametrize("seed", range(20))
    def test_conservation_no_minting(self, seed):
        rng = random.Random(1_400 + seed)
        hops = rng.randint(2, 8)
        path = [f"n{i}" for i in range(hops + 1)]
        policies = _random_policies(rng, hops)
        amount = rng.choice([1.0, 42.0, 900.0])
        amounts = hop_amounts(policies, amount)
        breakdown = fee_breakdown(path, policies, amount)
        # Only intermediaries can earn; the sender overpays exactly
        # what the intermediaries collectively pocket.
        assert set(breakdown) <= set(path[1:-1])
        assert all(earned > 0.0 for earned in breakdown.values())
        assert sum(breakdown.values()) == pytest.approx(
            amounts[0] - amount, rel=1e-12, abs=1e-12
        )

    def test_zero_fee_entries_omitted(self):
        path = ["a", "b", "c", "d"]
        policies = [
            DEFAULT_POLICY,
            ChannelPolicy(base_fee=1.0),
            DEFAULT_POLICY,
        ]
        breakdown = fee_breakdown(path, policies, 10.0)
        assert breakdown == {"b": 1.0}


class TestGraphPathFee:
    def _line(self) -> ChannelGraph:
        graph = ChannelGraph()
        graph.add_channel("a", "b", 100.0, 100.0)
        graph.add_channel("b", "c", 100.0, 100.0)
        graph.add_channel("c", "d", 100.0, 100.0)
        return graph

    def test_policy_aware_fee_compounds(self):
        graph = self._line()
        graph.set_channel_policy("b", "c", ChannelPolicy(fee_rate=0.1))
        graph.set_channel_policy("c", "d", ChannelPolicy(fee_rate=0.1))
        path = ["a", "b", "c", "d"]
        # c forwards 10 (fee 1); b forwards 11 (fee 1.1): compounded.
        assert graph.path_fee(path, 10.0) == pytest.approx(2.1)
        amounts = graph.path_hop_amounts(path, 10.0)
        assert amounts == pytest.approx([12.1, 11.0, 10.0])

    def test_legacy_graph_keeps_flat_sum(self):
        graph = self._line()
        assign_uniform_fees(graph, base=0.0, rate=0.1)
        assert not graph.policy_aware
        # Flat per-hop sum on the delivered amount (sender edge
        # included), byte-identical to the pre-policy library.
        assert graph.path_fee(["a", "b", "c", "d"], 10.0) == pytest.approx(
            3.0
        )
