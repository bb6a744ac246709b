"""The figure drivers run a scenario under its own engine and MPP knobs.

Every simulation driver (Figs 6-11, the k and path-order ablations)
hands the runner a factory callable, which carries no knobs; the
engine and MPP settings come from the ``Scenario`` object the driver
was given.  The runner is stubbed at :func:`repro.sim.runner.compare_schemes`,
which both ``run_comparison`` and ``sweep`` reach, so nothing is
simulated: each test only reads the :class:`RunConfig` every comparison
was asked to run under.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.eval.ablations as ablations
import repro.eval.experiments as experiments
import repro.sim.runner as runner
from repro.scenarios import get_scenario
from repro.sim.runner import RunConfig, resolve_run_config


class _Zero:
    """A stand-in for averaged metrics: every metric reads 0."""

    def __getattr__(self, name):
        return 0.0


#: driver name -> call on a scenario, at the smallest size it accepts.
DRIVERS = {
    "fig6": lambda s: experiments.fig6_capacity_sweep(
        s, scale_factors=(1, 10), runs=1
    ),
    "fig7": lambda s: experiments.fig7_load_sweep(
        s, transaction_counts=(40, 80), runs=1
    ),
    "fig8": lambda s: experiments.fig8_probing_overhead(s, runs=1),
    "fig9": lambda s: experiments.fig9_fee_optimization(
        s, transaction_counts=(40,), runs=1
    ),
    "fig10": lambda s: experiments.fig10_threshold_sweep(
        s, mice_percentages=(0, 90), runs=1
    ),
    "fig11": lambda s: experiments.fig11_mice_paths_sweep(
        s, m_values=(0, 4), runs=1
    ),
    "ablation-k": lambda s: ablations.ablation_k_sweep(
        s, k_values=(1, 20), runs=1
    ),
    "ablation-order": lambda s: ablations.ablation_mice_order(s, runs=1),
}


def _configs(monkeypatch, driver, scenario) -> list[RunConfig]:
    """The config of every comparison ``driver`` asks for on ``scenario``."""
    seen = []

    def fake_compare_schemes(factory, factories, config, **kwargs):
        seen.append(config)
        return {name: _Zero() for name in factories}

    monkeypatch.setattr(runner, "compare_schemes", fake_compare_schemes)
    DRIVERS[driver](scenario)
    assert seen
    return seen


@pytest.mark.parametrize(
    "name", ["payment-storm", "mpp-storm", "ripple-default"]
)
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_runs_the_registered_knobs(monkeypatch, driver, name):
    configs = _configs(monkeypatch, driver, get_scenario(name))
    assert set(configs) == {resolve_run_config(name)}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_reads_a_replaced_scenario(monkeypatch, driver):
    # Not the registry's knobs: the ones of the object handed in.
    scenario = dataclasses.replace(
        get_scenario("payment-storm"),
        engine_params={"load": 7.0, "max_retries": 1},
        mpp_params={"max_parts": 2},
    )
    configs = _configs(monkeypatch, driver, scenario)
    expected = resolve_run_config(
        None,
        "concurrent",
        {"load": 7.0, "max_retries": 1},
        {"max_parts": 2},
    )
    assert expected.concurrency.load == 7.0
    assert set(configs) == {expected}
    assert expected != resolve_run_config("payment-storm")
