"""Literal digests of the synthetic stress generators' output.

Each digest covers every transaction's fields (amounts and times as
``float.hex``) and the next ``rng.random()`` after the build, over
seeds 0-2, for 0, 1 and 300 payments.  A change to the RNG draws, their
order, the time ordering or the txid numbering shows here first.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.traces.synthetic import (
    generate_bursty_workload,
    generate_diurnal_workload,
    generate_hotspot_workload,
    generate_mixed_workload,
)

NODES = list(range(60))
SEEDS = (0, 1, 2)
COUNTS = (0, 1, 300)

#: name -> (generator, keyword arguments).
CASES = {
    "bursty": (generate_bursty_workload, {}),
    # Sessions 30 minutes apart on average, bursts of ~12 payments 5
    # minutes apart: bursts overlap the next sessions' starts.
    "bursty-overlapping": (
        generate_bursty_workload,
        {"bursts_per_day": 50, "mean_burst_size": 12, "intra_burst_gap": 300},
    ),
    "diurnal": (generate_diurnal_workload, {}),
    "hotspot": (generate_hotspot_workload, {}),
    # Every payment drains into one hotspot, so a sender that is the
    # hotspot itself takes the fallback receiver.
    "hotspot-single": (
        generate_hotspot_workload,
        {"hotspot_count": 1, "hotspot_share": 1.0},
    ),
    "mixed": (generate_mixed_workload, {}),
}

#: name -> digest per payment count in COUNTS, over every seed in SEEDS.
PINS = {
    "bursty": (
        "3a3eb866e586a28a", "21ea218f84015a2e", "6a011eab822bbceb"
    ),
    "bursty-overlapping": (
        "3a3eb866e586a28a", "90bbb3ec0cbdb010", "0610c9245460942c"
    ),
    "diurnal": (
        "3a3eb866e586a28a", "c82336b50b631440", "c14252ea7f479f65"
    ),
    "hotspot": (
        "a3ecf7c7f1ecc4ce", "da7c87a0263ba3f5", "edaaf47b7f1e1d2e"
    ),
    "hotspot-single": (
        "3015a798132f74ab", "ef0caded17b78289", "93d5a151c2c44ec3"
    ),
    "mixed": (
        "3a3eb866e586a28a", "3a462f1373434ef5", "2cad77fa07b70711"
    ),
}


def _digest(name: str, count: int) -> str:
    generator, kwargs = CASES[name]
    lines = []
    for seed in SEEDS:
        rng = random.Random(seed)
        workload = generator(rng, NODES, count, **kwargs)
        for txn in workload:
            lines.append(
                f"{txn.txid} {txn.sender!r} {txn.receiver!r} "
                f"{float(txn.amount).hex()} {float(txn.time).hex()}"
            )
        lines.append(rng.random().hex())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_output_is_pinned(name):
    assert tuple(_digest(name, count) for count in COUNTS) == PINS[name]
