"""Unit tests for fee policies."""

import random
from dataclasses import replace

import pytest

from repro.network.fees import (
    ChannelPolicy,
    LinearFee,
    ZeroFee,
    path_fee,
    sample_paper_fee,
)


class TestPolicies:
    def test_zero_fee(self):
        assert ZeroFee().fee(123.0) == 0.0
        assert ZeroFee().marginal_rate(123.0) == 0.0

    def test_linear_fee(self):
        policy = LinearFee(base=2.0, rate=0.01)
        assert policy.fee(100.0) == pytest.approx(3.0)
        assert policy.marginal_rate(100.0) == pytest.approx(0.01)

    def test_linear_base_only_when_used(self):
        policy = LinearFee(base=2.0, rate=0.01)
        assert policy.fee(0.0) == 0.0

    def test_linear_rejects_negative(self):
        with pytest.raises(ValueError):
            LinearFee(base=-1.0)

    def test_with_fee_rate_matches_replace(self):
        policy = ChannelPolicy(
            base_fee=0.5, fee_rate=0.01, cltv_delta=80,
            htlc_min=1.0, htlc_max=500.0,
        )
        copy = policy.with_fee_rate(0.02)
        assert copy == replace(policy, fee_rate=0.02)
        assert hash(copy) == hash(replace(policy, fee_rate=0.02))
        assert policy.fee_rate == 0.01
        with pytest.raises(ValueError):
            policy.with_fee_rate(-0.001)

    def test_path_fee_sums(self):
        policies = [LinearFee(rate=0.01), LinearFee(rate=0.02)]
        assert path_fee(policies, 100.0) == pytest.approx(3.0)


class TestPaperFeeMix:
    def test_rates_in_range(self):
        rng = random.Random(0)
        for _ in range(500):
            policy = sample_paper_fee(rng)
            assert 0.001 <= policy.rate < 0.10

    def test_mix_ratio(self):
        rng = random.Random(1)
        samples = [sample_paper_fee(rng).rate for _ in range(5_000)]
        high = sum(1 for rate in samples if rate >= 0.01)
        # 10% of channels charge 1%-10%; allow sampling slack.
        assert 0.06 < high / len(samples) < 0.14
