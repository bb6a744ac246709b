"""Byte-exact stdout of ``repro run`` and ``repro sweep``.

Each golden under ``tests/golden/cli/`` is the full stdout of one small
command: the header line, the base columns and every optional metric
family's columns or blocks (concurrency, resilience, fees, MPP), so a
change to which families show, their order, labels or number formats
fails here.  Routing is deterministic given the seed, so the match is
exact.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "cli"

#: Golden file stem -> CLI arguments.
COMMANDS = {
    "run_ripple_snapshot": "run ripple-snapshot --runs 1 --transactions 30",
    "run_timeout_stress": "run timeout-stress --runs 1 --transactions 20",
    "run_mpp_storm": "run mpp-storm --runs 1 --transactions 20",
    "run_jam_hubs": (
        "run jam-hubs --topo-param nodes=200 --runs 1 --transactions 30"
    ),
    "run_ripple_fees_all_families": (
        "run ripple-fees --engine concurrent --fault jamming "
        "--fault-param channels=2 --mpp --runs 1 --transactions 30"
    ),
    "sweep_engine_timeout": (
        "sweep timeout-stress --axis engine.timeout --values 0.5,2.0 "
        "--transactions 15 --runs 1"
    ),
    "sweep_mpp_split": (
        "sweep mpp-storm --axis mpp.split --values equal,flash "
        "--transactions 15 --runs 1"
    ),
    "sweep_fee_sensitivity": (
        "sweep fee-market --axis fee.sensitivity --values 0,8 "
        "--transactions 20 --runs 1"
    ),
    "sweep_fault_channels": (
        "sweep ripple-default --fault jamming --axis fault.channels "
        "--values 2,4 --transactions 20 --runs 1"
    ),
}


def test_every_golden_has_a_command():
    assert {path.stem for path in GOLDEN_DIR.glob("*.txt")} == set(COMMANDS)


@pytest.mark.parametrize("stem", sorted(COMMANDS))
def test_stdout_matches_golden(capsys, stem):
    assert main(COMMANDS[stem].split()) == 0
    golden = (GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_a_priced_run_shows_its_fee_columns_when_no_fee_was_paid(capsys):
    # The graph carries channel policies, so the run carries the fee
    # family, but its one payment pays no fee.
    assert main("run ripple-fees --runs 1 --transactions 1".split()) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert "fee paid" in header and "hub revenue" in header
