"""Literal digests of the inputs the figure drivers and ablations build.

The drivers of Figs 6-11 and the ablations run the benchmark-scale
Ripple and Lightning scenarios at a capacity scale (the figures use 1,
10, 30 and 60); Fig 9 draws the paper's fee mix after the build.  Each
digest covers every channel's endpoints and both balances as
``float.hex`` in ``graph.channels()`` order, the workload, the next
``rng.random()`` after the build, and for a Fig 9 build every
direction's fee.  Every figure result depends on these inputs, so a
change to how the drivers build them shows here first, without
simulating anything.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro.eval.ablations as ablations
import repro.eval.experiments as experiments
from repro.scenarios import get_scenario

SEEDS = (0, 1, 2)

#: (topology, capacity scale, Fig 9 fees) -> digest per seed in SEEDS.
#: Plain builds carry the default 300 payments; Fig 9 builds carry 150,
#: the first payment count of its benchmark.
PINS = {
    ("ripple", 1.0, False): (
        "6a44fc857b8112b4", "bf49f05fc1b3894f", "8c926bb565143a8f"
    ),
    ("ripple", 10.0, False): (
        "899d7fc03319085a", "206e2adedbdbcc56", "1342f1ede1670fe6"
    ),
    ("ripple", 1.0, True): (
        "8b26328185198d06", "0353ee0258be8be3", "1209eb0bd1cf465e"
    ),
    ("ripple", 10.0, True): (
        "e8575c7d80d4eecd", "053e4de65b2de13e", "bd55abc20e27074c"
    ),
    ("lightning", 1.0, False): (
        "b1f7ba49ffe00bef", "6be0620d1659d02c", "6f22c16db47750e8"
    ),
    ("lightning", 10.0, False): (
        "3c610a9e587a78f5", "bcae0abb19a33a65", "ed1a22a4bdda1129"
    ),
    ("lightning", 1.0, True): (
        "ad754c65c92e87b3", "a8385e8df57d4bdb", "e6c05bb5f1d99b0c"
    ),
    ("lightning", 10.0, True): (
        "e57c62cfc505b05e", "1cbdb096ff6b989b", "0d4ed82bd9011417"
    ),
}

FIG9_TRANSACTIONS = 150


def _scenario(topology: str):
    return get_scenario(f"{topology}-default")


def _build(topology: str, scale: float, fees: bool):
    """The factory a driver uses for this (topology, scale, fees) cell."""
    if not fees:
        return _scenario(topology).factory(topology_overrides={"scale": scale})
    return experiments._with_paper_fees(
        _scenario(topology).factory(
            topology_overrides={"scale": scale},
            workload_overrides={"transactions": FIG9_TRANSACTIONS},
        )
    )


def _digest(factory, seed: int, fees: bool) -> str:
    rng = random.Random(seed)
    graph, workload = factory(rng)
    lines = []
    for channel in graph.channels():
        a, b = channel.endpoints()
        line = (
            f"{a!r} {b!r} {float(channel.balance(a, b)).hex()} "
            f"{float(channel.balance(b, a)).hex()}"
        )
        if fees:
            for src, dst in ((a, b), (b, a)):
                policy = graph.fee_policy(src, dst)
                line += f" {policy.base.hex()} {policy.rate.hex()}"
        lines.append(line)
    for txn in workload:
        lines.append(
            f"{txn.txid} {txn.sender!r} {txn.receiver!r} "
            f"{float(txn.amount).hex()} {float(txn.time).hex()}"
        )
    lines.append(rng.random().hex())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("cell", sorted(PINS), ids=str)
def test_build_digests_are_pinned(cell):
    topology, scale, fees = cell
    factory = _build(topology, scale, fees)
    digests = tuple(_digest(factory, seed, fees) for seed in SEEDS)
    assert digests == PINS[cell]


class _Zero:
    """A stand-in for averaged metrics: every metric reads 0."""

    def __getattr__(self, name):
        return 0.0


def _capture(monkeypatch, module):
    """Stub ``module``'s runner calls; return the factories they get."""
    captured = []

    def fake_run_comparison(scenario, factories, **kwargs):
        captured.append(scenario)
        return {name: _Zero() for name in factories}

    def fake_sweep(values, scenario_for, factories, **kwargs):
        captured.extend(scenario_for(value) for value in values)
        return {name: [] for name in factories}

    monkeypatch.setattr(module, "run_comparison", fake_run_comparison)
    if hasattr(module, "sweep"):
        monkeypatch.setattr(module, "sweep", fake_sweep)
    return captured


#: driver name -> (module, call on a topology, the PINS cells it builds).
DRIVERS = {
    "fig6": (
        experiments,
        lambda base: experiments.fig6_capacity_sweep(
            base, scale_factors=(1, 10), runs=1
        ),
        [(1.0, False), (10.0, False)],
    ),
    "fig7": (
        experiments,
        lambda base: experiments.fig7_load_sweep(
            base, transaction_counts=(300,), runs=1
        ),
        [(10.0, False)],
    ),
    "fig8": (
        experiments,
        lambda base: experiments.fig8_probing_overhead(base, runs=1),
        [(10.0, False)],
    ),
    "fig9": (
        experiments,
        lambda base: experiments.fig9_fee_optimization(
            base, transaction_counts=(FIG9_TRANSACTIONS,), runs=1
        ),
        [(10.0, True)],
    ),
    "fig10": (
        experiments,
        lambda base: experiments.fig10_threshold_sweep(
            base, mice_percentages=(90,), runs=1
        ),
        [(10.0, False)],
    ),
    "fig11": (
        experiments,
        lambda base: experiments.fig11_mice_paths_sweep(
            base, m_values=(4,), runs=1
        ),
        [(10.0, False)],
    ),
    "ablation-k": (
        ablations,
        lambda base: ablations.ablation_k_sweep(base, k_values=(20,), runs=1),
        [(10.0, False)],
    ),
    "ablation-order": (
        ablations,
        lambda base: ablations.ablation_mice_order(base, runs=1),
        [(10.0, False)],
    ),
}


@pytest.mark.parametrize("topology", ["ripple", "lightning"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_drivers_build_the_pinned_inputs(monkeypatch, driver, topology):
    module, call, cells = DRIVERS[driver]
    captured = _capture(monkeypatch, module)
    call(_scenario(topology))
    assert len(captured) == len(cells)
    for factory, (scale, fees) in zip(captured, cells):
        expected = PINS[(topology, scale, fees)][0]
        assert _digest(factory, 0, fees) == expected, (scale, fees)
