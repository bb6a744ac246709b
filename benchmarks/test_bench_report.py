"""Report generation benchmark: the `repro report --smoke` pipeline.

Times the full store-backed report matrix (run -> record -> aggregate ->
tables + figures) at smoke scale, and asserts the structural acceptance
criteria: every scheme appears in every table, figures exist for the
headline metrics, and a second invocation resumes from the record store
instead of recomputing.
"""

import tempfile
from pathlib import Path

from _common import once, save_result

from repro.eval.report import TABLES, generate_report, report_factories
from repro.eval.store import ExperimentStore
from repro.sim.metrics import BASE_FAMILY, CONCURRENCY_FAMILY


def test_report_generation(benchmark):
    out_dir = Path(tempfile.mkdtemp(prefix="bench_report_"))
    artifacts = once(benchmark, lambda: generate_report(out_dir, smoke=True))

    report_text = artifacts.report_path.read_text()
    save_result("report_smoke", "repro report --smoke", report_text)

    # Flash and all four baselines in every generated table.
    for slug, path in artifacts.tables.items():
        text = path.read_text()
        for scheme in report_factories():
            assert f"| {scheme} |" in text, (slug, scheme)
    # Optional-metric tables appear only when a record carries the
    # metric: the smoke matrix has a concurrent cell (latency/timeout
    # tables) but no fault scenario (no resilience tables).
    assert set(artifacts.tables) == {
        table.slug
        for table in BASE_FAMILY.tables + CONCURRENCY_FAMILY.tables
    }
    # SVG figures for the headline metrics.
    assert {slug for slug in artifacts.figures} == {
        table.slug
        for table in TABLES
        if table.chart and table.slug in artifacts.tables
    }

    # Resume path: regeneration adds no new cells (all served from disk).
    store = ExperimentStore(out_dir)
    cells_before = store.completed_cells()
    generate_report(out_dir, smoke=True)
    assert store.completed_cells() == cells_before
