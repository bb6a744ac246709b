"""``tools/ab.py``: statistics and verdicts on canned perfbench results.

No subprocess is started: the tests feed the tool's functions the JSON
lines ``perfbench/run.py`` prints and check the quartiles, pairs won,
claim and regression verdicts, the flags and the printed table.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SPECS = {spec["name"]: spec for spec in CONTRACT["end_to_end"]}


def _line(correct: bool = True, failed: int = 0, **values):
    """A one-workload result line; unset metrics take fixed defaults."""
    metrics = {
        "payments_per_s": 200.0,
        "setup_s": 0.7,
        "peak_rss_mb": 120.0,
        "success_ratio": 0.85,
        "probe_messages_per_payment": 5.0,
    }
    metrics.update(values)
    return json.dumps(
        {
            "correct": correct,
            "attempted": 270,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": "x"}
                for name, value in metrics.items()
            },
        }
    )


def _runs(base_rates, change_rates, **change_values):
    runs = []
    for seed, (b, c) in enumerate(zip(base_rates, change_rates), start=12):
        output_b = "perfbench churn: ...\n" + _line(payments_per_s=b)
        output_c = "end-to-end\n" + _line(payments_per_s=c, **change_values)
        runs.append(
            (seed, ab.last_json_line(output_b), ab.last_json_line(output_c))
        )
    return runs


def test_value_reads_plain_and_prefixed_metric_names():
    plain = json.loads(_line(payments_per_s=298.6))
    prefixed = json.loads(
        '{"correct": true, "metrics": {"churn.payments_per_s": '
        '{"value": 230.0, "unit": "1/s"}}}'
    )
    assert ab.value(plain, "churn", "payments_per_s") == 298.6
    assert ab.value(prefixed, "churn", "payments_per_s") == 230.0
    assert ab.value(prefixed, "fees", "payments_per_s") is None


def test_parse_seeds():
    assert ab.parse_seeds("12-21") == list(range(12, 22))
    assert ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        ab.parse_seeds("9-3")


def test_last_json_line_skips_text_and_takes_the_last_object():
    output = 'text\n{"correct": false}\nmore text\n{"correct": true}\n\n'
    assert ab.last_json_line(output) == {"correct": True}
    with pytest.raises(ValueError):
        ab.last_json_line("no result\n")


def test_quartiles_interpolate_inclusively():
    assert ab.quartiles([float(x) for x in range(1, 11)]) == (3.25, 5.5, 7.75)
    assert ab.quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_claim_holds_on_nine_of_ten_and_a_gap_beyond_the_iqr():
    base = [200.0, 210.0, 190.0, 205.0, 195.0, 200.0, 215.0, 185.0, 200.0, 300.0]
    change = [280.0, 290.0, 270.0, 285.0, 275.0, 280.0, 295.0, 265.0, 280.0, 290.0]
    stats = ab.compare(base, change, SPECS["payments_per_s"])
    assert stats["won"] == 9 and stats["pairs"] == 10
    assert stats["base"] == (200.0, 196.25, 208.75)
    assert stats["ratio"] == pytest.approx(280.0 / 200.0)
    assert stats["claim"] and not stats["regressed"]


def test_claim_fails_on_eight_wins_or_a_gap_inside_the_iqr():
    base = [200.0] * 8 + [300.0, 300.0]
    change = [260.0] * 10
    stats = ab.compare(base, change, SPECS["payments_per_s"])
    assert stats["won"] == 8 and not stats["claim"]
    base = [100.0, 150.0, 200.0, 250.0, 300.0] * 2
    change = [value + 20.0 for value in base]
    stats = ab.compare(base, change, SPECS["payments_per_s"])
    assert stats["won"] == 10 and not stats["claim"]


def test_regression_against_the_bound_in_either_direction():
    rate = SPECS["payments_per_s"]  # higher is better, bound 0.2
    assert ab.compare([100.0] * 3, [79.0] * 3, rate)["regressed"]
    assert not ab.compare([100.0] * 3, [81.0] * 3, rate)["regressed"]
    rss = SPECS["peak_rss_mb"]  # lower is better, bound 0.1
    assert ab.compare([100.0] * 3, [111.0] * 3, rss)["regressed"]
    assert not ab.compare([100.0] * 3, [109.0] * 3, rss)["regressed"]
    stats = ab.compare([100.0] * 3, [90.0] * 3, rss)
    assert stats["won"] == 3 and stats["claim"]


def test_flags_name_incorrect_runs_and_differing_seeds():
    runs = _runs([200.0, 210.0], [250.0, 260.0])
    assert ab.flags("churn", runs) == []
    seed, base, change = runs[1]
    runs[1] = (seed, json.loads(_line(correct=False)), change)
    runs.append(
        (14, base, json.loads(_line(success_ratio=0.8, failed=2)))
    )
    assert ab.flags("churn", runs) == [
        "base, seed 13: correct=False, failed=0",
        "this tree, seed 14: correct=True, failed=2",
        "seed 14: success_ratio differs (0.85 vs 0.8)",
    ]


def test_report_prints_every_end_to_end_metric_and_the_verdicts():
    runs = _runs([200.0 + i for i in range(10)], [280.0] * 10)
    text, clean = ab.report("churn", runs, CONTRACT, "10 pairs")
    lines = text.splitlines()
    assert lines[0] == "churn: 10 pairs"
    rows = [line for line in lines if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == list(SPECS)
    assert rows[0] == (
        "| `payments_per_s` (1/s) | 204.5 [202.2, 206.8] | 280.0 [280.0, 280.0]"
        " | 1.369x | 10/10 | holds | within 20% |"
    )
    assert rows[3].endswith("| 0/10 | no | within 20% |")
    assert clean and lines[-1].startswith("every run correct")

    slow = _runs([200.0] * 4, [150.0] * 4, probe_messages_per_payment=6.0)
    text, clean = ab.report("churn", slow, CONTRACT, "4 pairs")
    assert not clean
    assert "| 0/4 | no | REGRESSED 20% |" in text
    assert "FLAG seed 12: probe_messages_per_payment differs (5.0 vs 6.0)" in text


def _traced_line(**values):
    """A traced result line: per-layer metrics only, as perfbench prints."""
    metrics = {"dynamics.reprice.calls": 260, "dynamics.reprice.s": 0.4}
    metrics.update(values)
    units = {spec["name"]: spec["unit"] for spec in CONTRACT["per_layer"]}
    return json.dumps(
        {
            "correct": True,
            "attempted": 8000,
            "failed": 0,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def test_trace_report_tabulates_reported_layers_and_flags_counts():
    spans = {"trace.spans": 27242}
    runs = [
        (
            seed,
            ab.last_json_line("per-layer\n" + _traced_line(**spans)),
            ab.last_json_line(
                _traced_line(**spans, **{"dynamics.reprice.s": seconds})
            ),
        )
        for seed, seconds in ((0, 0.2), (1, 0.18), (2, 0.16))
    ]
    text, clean = ab.trace_report("fees", runs, CONTRACT, "3 pairs, traced")
    lines = text.splitlines()
    assert lines[0] == "fees: 3 pairs, traced"
    rows = [line for line in lines if line.startswith("| `")]
    # Every reported per-layer metric, in BENCHMARK.json's order.
    assert [row.split("`")[1] for row in rows] == [
        "dynamics.reprice.calls", "dynamics.reprice.s", "trace.spans",
    ]
    assert rows[0] == (
        "| `dynamics.reprice.calls` (count) | 260.0 [260.0, 260.0] "
        "| 260.0 [260.0, 260.0] | 1.000x |"
    )
    assert rows[1] == (
        "| `dynamics.reprice.s` (s) | 0.4 [0.4, 0.4] "
        "| 0.18 [0.17, 0.19] | 0.450x |"
    )
    assert clean and lines[-1] == (
        "every run correct; every count identical per seed"
    )

    seed, base, _ = runs[1]
    change = {"trace.spans": 27243, "dynamics.reprice.s": 9.0}
    runs[1] = (seed, base, json.loads(_traced_line(**change)))
    text, clean = ab.trace_report("fees", runs, CONTRACT, "3 pairs, traced")
    assert not clean
    # A time may differ; a count may not.
    assert text.splitlines()[-1] == (
        "FLAG seed 1: trace.spans differs (27242 vs 27243)"
    )


def test_trace_report_marks_a_ratio_over_zero():
    runs = [
        (
            0,
            json.loads(_traced_line(**{"kernel.bfs_tree.calls": 0})),
            json.loads(_traced_line(**{"kernel.bfs_tree.calls": 0})),
        )
    ]
    text, clean = ab.trace_report("fees", runs, CONTRACT, "1 pair")
    assert clean
    assert "| `kernel.bfs_tree.calls` (count) | 0 [0, 0] | 0 [0, 0] | - |" in text
