"""Synthetic workload generators beyond the paper's calibrated traces.

:mod:`repro.traces.generators` reproduces the two workloads the paper
evaluates on (§4.1).  This module adds the stress shapes a production
router meets in the wild, each exposed as a named workload in the
:mod:`repro.scenarios` catalog:

* :func:`generate_bursty_workload` — compound-Poisson bursts: payment
  *sessions* arrive as a Poisson process, each session fires a geometric
  number of rapid payments on one (sender, receiver) pair.  Stresses the
  routing table's recurrence exploitation and channel depletion on a
  single path.
* :func:`generate_diurnal_workload` — a sinusoidal daily rate profile
  (thinning of a homogeneous Poisson process), so the network alternates
  between quiet recovery windows and rush-hour contention.
* :func:`generate_hotspot_workload` — a configurable share of all
  payments drains into a handful of hotspot receivers (merchants or
  exchanges), creating the asymmetric many-to-one congestion that
  single-path routing handles worst.
* :func:`generate_mixed_workload` — an explicit mice–elephant mixture
  with every knob exposed (mice fraction, medians, log-sigmas), for
  sweeping the elephant share instead of inheriting the trace-calibrated
  10%.

All generators take an explicit :class:`random.Random` and return a
:class:`~repro.traces.workload.Workload`, so they compose with every
scenario/runner entry point exactly like the calibrated generators.
Unlike the calibrated traces they have no ``stream_*`` twins: no
workload streams these shapes.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from itertools import accumulate

from repro.network.channel import NodeId
from repro.traces.distributions import (
    LogNormalSpec,
    PaymentSizeDistribution,
    ripple_size_distribution,
)
from repro.traces.generators import (
    SECONDS_PER_DAY,
    _simulation_pair_sampler,
    generate_workload,
)
from repro.traces.recurrence import RecurrentPairSampler
from repro.traces.workload import Transaction, Workload


def generate_bursty_workload(
    rng: random.Random,
    nodes: Sequence[NodeId],
    n_transactions: int,
    sizes: PaymentSizeDistribution | None = None,
    bursts_per_day: float = 400.0,
    mean_burst_size: float = 5.0,
    intra_burst_gap: float = 2.0,
    pair_sampler: RecurrentPairSampler | None = None,
) -> Workload:
    """Compound-Poisson burst workload.

    Sessions arrive with exponential gaps (``bursts_per_day`` rate); each
    session picks one (sender, receiver) pair and fires a geometric
    number of payments (mean ``mean_burst_size``) spaced by exponential
    ``intra_burst_gap``-second gaps.  Generation stops once
    ``n_transactions`` payments exist, so the last burst may be cut
    short.  A long burst can overlap the next session's start; the
    payments are stably sorted by time and numbered in that order, so
    the trace-driven simulator always sees a chronological stream.
    """
    if n_transactions < 0:
        raise ValueError("n_transactions must be non-negative")
    if bursts_per_day <= 0 or mean_burst_size < 1 or intra_burst_gap <= 0:
        raise ValueError(
            "bursts_per_day and intra_burst_gap must be positive, "
            "mean_burst_size >= 1"
        )
    distribution = sizes or ripple_size_distribution()
    sampler = pair_sampler or _simulation_pair_sampler(rng, nodes)
    continue_probability = 1.0 - 1.0 / mean_burst_size
    mean_session_gap = SECONDS_PER_DAY / bursts_per_day
    payments: list[tuple[float, NodeId, NodeId, float]] = []
    now = 0.0
    while len(payments) < n_transactions:
        now += rng.expovariate(1.0 / mean_session_gap)
        sender, receiver = sampler.sample_pair()
        burst_time = now
        while len(payments) < n_transactions:
            payments.append(
                (burst_time, sender, receiver, distribution.sample(rng))
            )
            if rng.random() >= continue_probability:
                break
            burst_time += rng.expovariate(1.0 / intra_burst_gap)
    payments.sort(key=lambda payment: payment[0])
    return Workload(
        [
            Transaction(
                txid=txid,
                sender=sender,
                receiver=receiver,
                amount=amount,
                time=time,
            )
            for txid, (time, sender, receiver, amount) in enumerate(payments)
        ]
    )


def generate_diurnal_workload(
    rng: random.Random,
    nodes: Sequence[NodeId],
    n_transactions: int,
    sizes: PaymentSizeDistribution | None = None,
    transactions_per_day: float = 2_000.0,
    peak_to_trough: float = 4.0,
    peak_hour: float = 14.0,
    pair_sampler: RecurrentPairSampler | None = None,
) -> Workload:
    """Daily-rhythm workload via Poisson thinning.

    The arrival rate follows a sinusoid with its maximum at ``peak_hour``
    and a ``peak_to_trough`` ratio between the busiest and quietest
    moment of the day; the mean daily count stays ``transactions_per_day``.
    Implemented by thinning a homogeneous process at the peak rate
    (Lewis–Shedler), so arrivals are an exact inhomogeneous Poisson
    process.
    """
    if n_transactions < 0:
        raise ValueError("n_transactions must be non-negative")
    if transactions_per_day <= 0:
        raise ValueError("transactions_per_day must be positive")
    if peak_to_trough < 1.0:
        raise ValueError(f"peak_to_trough must be >= 1, got {peak_to_trough}")
    distribution = sizes or ripple_size_distribution()
    sampler = pair_sampler or _simulation_pair_sampler(rng, nodes)
    # rate(t) = base * (1 + a*cos(...)), a in [0, 1): ratio (1+a)/(1-a).
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    base_rate = transactions_per_day / SECONDS_PER_DAY
    peak_rate = base_rate * (1.0 + amplitude)
    phase = 2.0 * math.pi * peak_hour / 24.0
    transactions: list[Transaction] = []
    now = 0.0
    while len(transactions) < n_transactions:
        now += rng.expovariate(peak_rate)
        angle = 2.0 * math.pi * (now / SECONDS_PER_DAY) - phase
        rate = base_rate * (1.0 + amplitude * math.cos(angle))
        if rng.random() * peak_rate > rate:
            continue  # thinned away
        sender, receiver = sampler.sample_pair()
        transactions.append(
            Transaction(
                txid=len(transactions),
                sender=sender,
                receiver=receiver,
                amount=distribution.sample(rng),
                time=now,
            )
        )
    return Workload(transactions)


def generate_hotspot_workload(
    rng: random.Random,
    nodes: Sequence[NodeId],
    n_transactions: int,
    sizes: PaymentSizeDistribution | None = None,
    transactions_per_day: float = 2_000.0,
    hotspot_count: int = 4,
    hotspot_share: float = 0.6,
    pair_sampler: RecurrentPairSampler | None = None,
) -> Workload:
    """Many-to-one congestion: hotspot receivers absorb most payments.

    ``hotspot_share`` of payments are redirected to one of
    ``hotspot_count`` fixed hotspot nodes (Zipf-weighted, so the first
    hotspot is the busiest); the rest follow the ordinary recurrent pair
    process.  Models merchant/exchange concentration — the Fig-4b
    "top-5 receivers" effect pushed to a topology-wide extreme.
    """
    if n_transactions < 0:
        raise ValueError("n_transactions must be non-negative")
    if transactions_per_day <= 0:
        raise ValueError("transactions_per_day must be positive")
    if not 0.0 <= hotspot_share <= 1.0:
        raise ValueError(f"hotspot_share must be in [0, 1], got {hotspot_share}")
    if not 1 <= hotspot_count < len(nodes):
        raise ValueError(
            f"hotspot_count must be in [1, {len(nodes) - 1}], got {hotspot_count}"
        )
    distribution = sizes or ripple_size_distribution()
    sampler = pair_sampler or _simulation_pair_sampler(rng, nodes)
    hotspots = rng.sample(list(nodes), hotspot_count)
    hotspot_weights = [1.0 / (rank + 1.0) for rank in range(hotspot_count)]
    # Cumulative weights are what rng.choices() computes internally on
    # every call; hoisting them out of the per-transaction loop skips
    # that O(hotspot_count) rebuild per payment.
    hotspot_cum_weights = list(accumulate(hotspot_weights))
    mean_gap = SECONDS_PER_DAY / transactions_per_day
    transactions: list[Transaction] = []
    now = 0.0
    for txid in range(n_transactions):
        now += rng.expovariate(1.0 / mean_gap)
        sender, receiver = sampler.sample_pair()
        if rng.random() < hotspot_share:
            receiver = rng.choices(
                hotspots, cum_weights=hotspot_cum_weights
            )[0]
            if receiver == sender:
                # Resample among the remaining hotspots with their Zipf
                # weights renormalized.  Redirecting to the *next* rank
                # instead would bias mass toward whichever hotspot sits
                # adjacent to a frequent sender.
                remaining = [spot for spot in hotspots if spot != sender]
                if remaining:
                    weights = [
                        weight
                        for spot, weight in zip(hotspots, hotspot_weights)
                        if spot != sender
                    ]
                    receiver = rng.choices(remaining, weights=weights)[0]
                else:  # single usable hotspot == the sender
                    receiver = next(n for n in nodes if n != sender)
        transactions.append(
            Transaction(
                txid=txid,
                sender=sender,
                receiver=receiver,
                amount=distribution.sample(rng),
                time=now,
            )
        )
    return Workload(transactions)


def generate_mixed_workload(
    rng: random.Random,
    nodes: Sequence[NodeId],
    n_transactions: int,
    mice_fraction: float = 0.9,
    mice_median: float = 5.0,
    elephant_median: float = 2_000.0,
    mice_sigma: float = 1.2,
    elephant_sigma: float = 1.0,
    transactions_per_day: float = 2_000.0,
    pair_sampler: RecurrentPairSampler | None = None,
) -> Workload:
    """Explicit mice–elephant mixture with every knob exposed.

    Unlike the trace-calibrated distributions (fixed 90/10 split solved
    from §2.2 statistics), this builds the two log-normal components
    directly, so sweeps can vary the elephant share or the size gap
    without re-solving the calibration.  Poisson arrivals and the
    recurrent pair process are the same as the calibrated generators.
    """
    if not 0.0 <= mice_fraction <= 1.0:
        raise ValueError(f"mice_fraction must be in [0, 1], got {mice_fraction}")
    if mice_median >= elephant_median:
        raise ValueError(
            f"mice_median ({mice_median}) must be below "
            f"elephant_median ({elephant_median})"
        )
    distribution = PaymentSizeDistribution(
        body=LogNormalSpec(median=mice_median, sigma=mice_sigma),
        tail=LogNormalSpec(median=elephant_median, sigma=elephant_sigma),
        tail_weight=1.0 - mice_fraction,
    )
    return generate_workload(
        rng,
        nodes,
        n_transactions,
        distribution,
        transactions_per_day=transactions_per_day,
        pair_sampler=pair_sampler or _simulation_pair_sampler(rng, nodes),
    )
