"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper figure/table at *benchmark scale*
(smaller topology/workload than the paper so the whole suite runs in
minutes) and:

* prints the paper-shaped series/table,
* writes it to ``benchmarks/results/<name>.txt`` so the output survives
  pytest's capture, and
* asserts the qualitative claim of the figure (who wins, direction of
  the effect), so a regression in the algorithms fails the bench.

Every ``BENCH_*.json`` snapshot is rewritten only under
``BENCH_RECORD=1``: the timed ones (routing, churn, streaming) differ
on every run, and every snapshot's machine block differs between hosts.
Timed benchmarks gate their text result the same way; the other text
results are deterministic, so a plain full-scale run leaves the tree as
it was.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import json
import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``BENCH_RECORD=1``: rewrite the committed results of timed benchmarks.
RECORD = os.environ.get("BENCH_RECORD", "") not in ("", "0")


def save_result(name: str, title: str, body: str, timed: bool = False) -> str:
    """Persist and echo one regenerated figure.

    A ``timed`` result is only written under ``BENCH_RECORD=1``.
    """
    text = f"== {title} ==\n{body}\n"
    if RECORD or not timed:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def save_timed_snapshot(path: pathlib.Path, report: dict) -> None:
    """Write a ``BENCH_*.json`` snapshot under ``BENCH_RECORD=1``.

    Canonical serialization (sorted keys, fixed float precision) keeps
    the snapshot diffable across platforms.
    """
    if not RECORD:
        return
    from repro.eval.store import CANONICAL_DIGITS, canonicalize

    path.write_text(
        json.dumps(
            canonicalize(report, CANONICAL_DIGITS),
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )
        + "\n"
    )


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
