"""Literal store cell keys of the report, ``repro run`` and ``repro sweep``.

A store cell is keyed by a digest of everything that shapes the run
(:func:`repro.sim.runner.cell_digest`); changing the recipe silently
orphans every store ever written, so these keys are pinned as literals.
Each case drives the real entry point (``generate_report`` or the CLI)
with a probe in place of the experiment store: the probe reports the
first cell key the runner looks up and stops the run there, so nothing
is simulated.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.eval.report as report_mod
import repro.eval.store as store_mod
import repro.scenarios as scenarios
from repro.cli import main


class _KeyLookedUp(Exception):
    """Raised by the probe with the first cell key the runner checks."""


class _ProbeRecords(dict):
    def __contains__(self, cell):
        raise _KeyLookedUp(cell)

    def get(self, cell, default=None):
        raise _KeyLookedUp(cell)

    def __getitem__(self, cell):
        raise _KeyLookedUp(cell)


class _ProbeStore:
    """An empty experiment store whose first key lookup ends the run."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.records_path = self.directory / "records.jsonl"

    def merge_shards(self) -> int:
        return 0

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def load(self) -> dict:
        return _ProbeRecords()

    def records(self):
        return iter(())


def _first_cell(call) -> str:
    with pytest.raises(_KeyLookedUp) as probe:
        call()
    return probe.value.args[0]


@pytest.fixture
def probe_store(monkeypatch):
    monkeypatch.setattr(report_mod, "ExperimentStore", _ProbeStore)
    monkeypatch.setattr(store_mod, "ExperimentStore", _ProbeStore)


#: The report's first cell (Flash, seed 0, run 0) per scenario, at the
#: scenario's smoke and full ``EvalMatrix`` sizes.
REPORT_CELLS = {
    ("elephant-heavy", True):
        "elephant-heavy|Flash|seed0|run0|ad051dedb125",
    ("elephant-heavy", False):
        "elephant-heavy|Flash|seed0|run0|875f3eae2219",
    ("fee-market", True):
        "fee-market|Flash|seed0|run0|5cfb9735c040",
    ("fee-market", False):
        "fee-market|Flash|seed0|run0|7130eac67d46",
    ("hotspot-drain", True):
        "hotspot-drain|Flash|seed0|run0|5cfb9735c040",
    ("hotspot-drain", False):
        "hotspot-drain|Flash|seed0|run0|7130eac67d46",
    ("hub-kill-xl", True):
        "hub-kill-xl|Flash|seed0|run0|38a8730f473e",
    ("hub-kill-xl", False):
        "hub-kill-xl|Flash|seed0|run0|5e1b04dd858f",
    ("hub-pricing", True):
        "hub-pricing|Flash|seed0|run0|7fba96aa4ce1",
    ("hub-pricing", False):
        "hub-pricing|Flash|seed0|run0|7c63920eba28",
    ("jam-hubs", True):
        "jam-hubs|Flash|seed0|run0|3c273e4910d0",
    ("jam-hubs", False):
        "jam-hubs|Flash|seed0|run0|f6b8f32d7b20",
    ("lightning-day", True):
        "lightning-day|Flash|seed0|run0|3f19f956a395",
    ("lightning-day", False):
        "lightning-day|Flash|seed0|run0|a2f4291a2c9b",
    ("lightning-default", True):
        "lightning-default|Flash|seed0|run0|5cfb9735c040",
    ("lightning-default", False):
        "lightning-default|Flash|seed0|run0|7130eac67d46",
    ("lightning-diurnal", True):
        "lightning-diurnal|Flash|seed0|run0|5cfb9735c040",
    ("lightning-diurnal", False):
        "lightning-diurnal|Flash|seed0|run0|7130eac67d46",
    ("lightning-hotload", True):
        "lightning-hotload|Flash|seed0|run0|60a14034099e",
    ("lightning-hotload", False):
        "lightning-hotload|Flash|seed0|run0|c43f4c6e2583",
    ("lightning-snapshot", True):
        "lightning-snapshot|Flash|seed0|run0|5cfb9735c040",
    ("lightning-snapshot", False):
        "lightning-snapshot|Flash|seed0|run0|7130eac67d46",
    ("lightning-xl", True):
        "lightning-xl|Flash|seed0|run0|5cfb9735c040",
    ("lightning-xl", False):
        "lightning-xl|Flash|seed0|run0|7130eac67d46",
    ("liquidity-drain-storm", True):
        "liquidity-drain-storm|Flash|seed0|run0|e339aac595a3",
    ("liquidity-drain-storm", False):
        "liquidity-drain-storm|Flash|seed0|run0|172c089a8661",
    ("mpp-storm", True):
        "mpp-storm|Flash|seed0|run0|70f155b7fc4b",
    ("mpp-storm", False):
        "mpp-storm|Flash|seed0|run0|7d583cdc730e",
    ("partition-heal-wave", True):
        "partition-heal-wave|Flash|seed0|run0|8a0fee49922b",
    ("partition-heal-wave", False):
        "partition-heal-wave|Flash|seed0|run0|59f13150f701",
    ("payment-storm", True):
        "payment-storm|Flash|seed0|run0|2959df01c42b",
    ("payment-storm", False):
        "payment-storm|Flash|seed0|run0|ef5a8374c07d",
    ("ripple-bursty", True):
        "ripple-bursty|Flash|seed0|run0|5cfb9735c040",
    ("ripple-bursty", False):
        "ripple-bursty|Flash|seed0|run0|7130eac67d46",
    ("ripple-churn", True):
        "ripple-churn|Flash|seed0|run0|c7b359b06b93",
    ("ripple-churn", False):
        "ripple-churn|Flash|seed0|run0|c2cb1b5db1c6",
    ("ripple-default", True):
        "ripple-default|Flash|seed0|run0|5cfb9735c040",
    ("ripple-default", False):
        "ripple-default|Flash|seed0|run0|7130eac67d46",
    ("ripple-fees", True):
        "ripple-fees|Flash|seed0|run0|bce655647cb0",
    ("ripple-fees", False):
        "ripple-fees|Flash|seed0|run0|ae7f664a88cc",
    ("ripple-jammed", True):
        "ripple-jammed|Flash|seed0|run0|525dc14ea25d",
    ("ripple-jammed", False):
        "ripple-jammed|Flash|seed0|run0|e31bb4fe3b29",
    ("ripple-snapshot", True):
        "ripple-snapshot|Flash|seed0|run0|5cfb9735c040",
    ("ripple-snapshot", False):
        "ripple-snapshot|Flash|seed0|run0|7130eac67d46",
    ("scale-churn", True):
        "scale-churn|Flash|seed0|run0|f0994e96a09f",
    ("scale-churn", False):
        "scale-churn|Flash|seed0|run0|82024c91711d",
    ("testbed-smallworld", True):
        "testbed-smallworld|Flash|seed0|run0|5d2f5a954d9a",
    ("testbed-smallworld", False):
        "testbed-smallworld|Flash|seed0|run0|12868749e8ea",
    ("timeout-stress", True):
        "timeout-stress|Flash|seed0|run0|edc55031d66b",
    ("timeout-stress", False):
        "timeout-stress|Flash|seed0|run0|faa8cc2851ab",
}

#: ``repro run NAME --out DIR`` (two runs, seed 0) per scenario.
RUN_CELLS = {
    "elephant-heavy":
        "elephant-heavy|Flash|seed0|run0|7bc3b23fb50d",
    "fee-market":
        "fee-market|Flash|seed0|run0|939f4f9be98d",
    "hotspot-drain":
        "hotspot-drain|Flash|seed0|run0|939f4f9be98d",
    "hub-kill-xl":
        "hub-kill-xl|Flash|seed0|run0|13495e0c8e98",
    "hub-pricing":
        "hub-pricing|Flash|seed0|run0|0c30d28e4bb5",
    "jam-hubs":
        "jam-hubs|Flash|seed0|run0|273c79559616",
    "lightning-day":
        "lightning-day|Flash|seed0|run0|48bb8921d21d",
    "lightning-default":
        "lightning-default|Flash|seed0|run0|939f4f9be98d",
    "lightning-diurnal":
        "lightning-diurnal|Flash|seed0|run0|939f4f9be98d",
    "lightning-hotload":
        "lightning-hotload|Flash|seed0|run0|eee0ab5fe638",
    "lightning-snapshot":
        "lightning-snapshot|Flash|seed0|run0|939f4f9be98d",
    "lightning-xl":
        "lightning-xl|Flash|seed0|run0|939f4f9be98d",
    "liquidity-drain-storm":
        "liquidity-drain-storm|Flash|seed0|run0|897adb798cba",
    "mpp-storm":
        "mpp-storm|Flash|seed0|run0|9875b49bb670",
    "partition-heal-wave":
        "partition-heal-wave|Flash|seed0|run0|8995fedc8a7c",
    "payment-storm":
        "payment-storm|Flash|seed0|run0|8d8d35915142",
    "ripple-bursty":
        "ripple-bursty|Flash|seed0|run0|939f4f9be98d",
    "ripple-churn":
        "ripple-churn|Flash|seed0|run0|226e162e615a",
    "ripple-default":
        "ripple-default|Flash|seed0|run0|939f4f9be98d",
    "ripple-fees":
        "ripple-fees|Flash|seed0|run0|393587fc44b4",
    "ripple-jammed":
        "ripple-jammed|Flash|seed0|run0|06b635eb9d60",
    "ripple-snapshot":
        "ripple-snapshot|Flash|seed0|run0|939f4f9be98d",
    "scale-churn":
        "scale-churn|Flash|seed0|run0|02cae89afc86",
    "testbed-smallworld":
        "testbed-smallworld|Flash|seed0|run0|6cb783e09f84",
    "timeout-stress":
        "timeout-stress|Flash|seed0|run0|955666ced794",
}

#: ``repro run`` cells under the engine, MPP and fault flags.
FLAGGED_RUN_CELLS = {
    ("ripple-default", "--engine", "concurrent", "--load", "40"):
        "ripple-default|Flash|seed0|run0|24eb23de1c36",
    ("ripple-default", "--mpp", "--mpp-param", "split=flash"):
        "ripple-default|Flash|seed0|run0|9fec14d2491e",
    ("mpp-storm", "--mpp-param", "max_parts=3"):
        "mpp-storm|Flash|seed0|run0|a73ff927bfd9",
    ("ripple-default", "--fault", "jamming", "--fault-param", "channels=4"):
        "ripple-default|Flash|seed0|run0|e383b477ac9d",
    ("ripple-jammed", "--fault", "hub-kill"):
        "ripple-jammed|Flash|seed0|run0|80880a42ce9d",
}

#: ``repro sweep`` cells (the first swept value), one per axis role.
SWEEP_CELLS = {
    ("ripple-default", "--axis", "topology.capacity_median", "--values",
     "125,250"):
        "ripple-default|Flash|seed0|run0|3c1cf207243a",
    ("ripple-default", "--axis", "workload.transactions", "--values", "20,30"):
        "ripple-default|Flash|seed0|run0|43b552cbe3a5",
    ("ripple-churn", "--axis", "dynamics.preset", "--values", "calm,volatile"):
        "ripple-churn|Flash|seed0|run0|1be3bda6a778",
    ("fee-market", "--axis", "fee.sensitivity", "--values", "0,8"):
        "fee-market|Flash|seed0|run0|f10140f74054",
    ("ripple-default", "--fault", "jamming", "--axis", "fault.channels",
     "--values", "2,4"):
        "ripple-default|Flash|seed0|run0|f94bfbfb51f1",
    ("timeout-stress", "--axis", "engine.timeout", "--values", "0.5,2.0"):
        "timeout-stress|Flash|seed0|run0|bd1e095b6f36",
    ("mpp-storm", "--axis", "mpp.split", "--values", "equal,flash"):
        "mpp-storm|Flash|seed0|run0|a14d71ae662b",
    ("ripple-default", "--transactions", "25", "--mpp", "--axis",
     "mpp.max_parts", "--values", "2,3"):
        "ripple-default|Flash|seed0|run0|79580fb8c410",
}


def test_every_scenario_is_pinned():
    names = set(scenarios.scenario_names())
    assert {name for name, _ in REPORT_CELLS} == names
    assert set(RUN_CELLS) == names


@pytest.mark.parametrize(
    "name,smoke", sorted(REPORT_CELLS), ids=lambda value: str(value)
)
def test_report_cell_key(probe_store, tmp_path, name, smoke):
    cell = _first_cell(
        lambda: report_mod.generate_report(
            tmp_path, smoke=smoke, scenario_names=[name]
        )
    )
    assert cell == REPORT_CELLS[name, smoke]


@pytest.mark.parametrize("name", sorted(RUN_CELLS))
def test_run_cell_key(probe_store, tmp_path, capsys, name):
    cell = _first_cell(lambda: main(["run", name, "--out", str(tmp_path)]))
    assert cell == RUN_CELLS[name]


@pytest.mark.parametrize("argv", sorted(FLAGGED_RUN_CELLS), ids=" ".join)
def test_flagged_run_cell_key(probe_store, tmp_path, capsys, argv):
    cell = _first_cell(
        lambda: main(["run", *argv, "--out", str(tmp_path)])
    )
    assert cell == FLAGGED_RUN_CELLS[argv]


@pytest.mark.parametrize("argv", sorted(SWEEP_CELLS), ids=" ".join)
def test_sweep_cell_key(probe_store, tmp_path, capsys, argv):
    cell = _first_cell(
        lambda: main(["sweep", *argv, "--out", str(tmp_path)])
    )
    assert cell == SWEEP_CELLS[argv]
