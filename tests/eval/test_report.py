"""Tests for the headline report generator and golden drift checks."""

import pytest

import repro.scenarios as scenarios
from repro.eval.report import (
    TABLES,
    check_golden,
    generate_report,
    report_factories,
)
from repro.sim.metrics import BASE_FAMILY, CONCURRENCY_FAMILY

from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden" / "report_smoke"
SCHEMES = ("Flash", "Spider", "SpeedyMurmurs", "Shortest Path", "Landmark")


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    """One smoke-matrix report, shared by every test in this module."""
    out_dir = tmp_path_factory.mktemp("report")
    return generate_report(out_dir, smoke=True)


class TestMatrix:
    def test_flash_and_all_four_baselines(self):
        assert tuple(report_factories()) == SCHEMES

    def test_default_matrix_covers_both_snapshots(self):
        names = [s.name for s in scenarios.report_scenarios()]
        assert "ripple-snapshot" in names
        assert "lightning-snapshot" in names

    def test_full_matrix_uses_at_least_three_seeds(self):
        for scenario in scenarios.report_scenarios():
            runs, _ = scenario.eval_matrix.config(smoke=False)
            assert runs >= 3, scenario.name

    def test_smoke_matrix_is_snapshots_plus_concurrent_cell(self):
        names = [s.name for s in scenarios.report_scenarios(smoke=True)]
        assert names == [
            "lightning-snapshot",
            "payment-storm",
            "ripple-snapshot",
        ]

    def test_smoke_matrix_has_one_concurrent_cell(self):
        engines = {
            s.name: s.engine for s in scenarios.report_scenarios(smoke=True)
        }
        assert engines["payment-storm"] == "concurrent"
        assert sum(1 for e in engines.values() if e == "concurrent") == 1


class TestGeneratedArtifacts:
    def test_all_tables_written(self, smoke_report):
        # Optional-metric tables appear only when some record carries
        # the metric: the smoke matrix has a concurrent cell (latency
        # and timeout tables) but no fault scenario, so the resilience
        # tables are skipped and the goldens stay fault-free.
        expected = {
            t.slug for t in BASE_FAMILY.tables + CONCURRENCY_FAMILY.tables
        }
        assert set(smoke_report.tables) == expected
        for path in smoke_report.tables.values():
            assert path.exists()

    def test_figures_written_for_chart_tables(self, smoke_report):
        chart_slugs = {
            t.slug
            for t in TABLES
            if t.chart and t.slug in smoke_report.tables
        }
        assert set(smoke_report.figures) == chart_slugs
        for path in smoke_report.figures.values():
            assert path.suffix == ".svg"
            assert path.stat().st_size > 0

    def test_tables_cover_every_scheme(self, smoke_report):
        text = smoke_report.tables["success_ratio"].read_text()
        for scheme in SCHEMES:
            assert f"| {scheme} |" in text

    def test_report_md_links_methodology_and_scenarios(self, smoke_report):
        text = smoke_report.report_path.read_text()
        assert "docs/RESULTS.md" in text
        assert "ripple-snapshot" in text and "lightning-snapshot" in text

    def test_summary_json_canonical(self, smoke_report):
        import json

        from repro.eval.store import CANONICAL_DIGITS, canonical_json

        text = smoke_report.summary_path.read_text().strip()
        assert text == canonical_json(
            json.loads(text), float_digits=CANONICAL_DIGITS
        )

    def test_records_store_populated(self, smoke_report):
        from repro.eval.store import ExperimentStore

        store = ExperimentStore(smoke_report.out_dir)
        # 3 scenarios x 2 seeds x 5 schemes
        assert len(store) == 30


class TestDeterminismAndResume:
    def test_matches_committed_goldens(self, smoke_report):
        problems = check_golden(smoke_report.out_dir / "tables", GOLDEN_DIR)
        assert problems == [], "\n".join(problems)

    def test_vector_sweeps_match_committed_goldens(
        self, tmp_path, vector_sweeps
    ):
        vector_sweeps()
        report = generate_report(tmp_path, smoke=True)
        problems = check_golden(report.out_dir / "tables", GOLDEN_DIR)
        assert problems == [], "\n".join(problems)

    def test_regeneration_resumes_and_is_byte_identical(self, smoke_report):
        before_records = (
            smoke_report.out_dir / "records.jsonl"
        ).read_bytes()
        before_tables = {
            slug: path.read_bytes()
            for slug, path in smoke_report.tables.items()
        }
        again = generate_report(smoke_report.out_dir, smoke=True)
        assert (
            smoke_report.out_dir / "records.jsonl"
        ).read_bytes() == before_records
        for slug, path in again.tables.items():
            assert path.read_bytes() == before_tables[slug], slug


class TestFaultReport:
    def test_fault_scenario_populates_resilience_tables(self, tmp_path):
        report = generate_report(
            tmp_path / "fault",
            scenario_names=["ripple-jammed"],
            runs=1,
            transactions=30,
        )
        for slug in (
            "attack_success_ratio",
            "resilience_delta",
            "recovery_half_life",
            "adversary_escrow",
        ):
            assert slug in report.tables, slug
            assert "ripple-jammed" in report.tables[slug].read_text()
        assert "attack_success_ratio" in report.figures


class TestGoldenChecker:
    def test_detects_numeric_drift(self, smoke_report, tmp_path):
        golden = tmp_path / "golden"
        golden.mkdir()
        for path in smoke_report.tables.values():
            (golden / path.name).write_text(path.read_text())
        target = golden / "success_ratio.md"
        # Perturb one numeric cell beyond tolerance.
        text = target.read_text()
        import re

        drifted = re.sub(r"(\d+\.\d+)", lambda m: "99.99", text, count=1)
        assert drifted != text
        target.write_text(drifted)
        problems = check_golden(smoke_report.out_dir / "tables", golden)
        assert any("drifts from golden" in p for p in problems)

    def test_detects_missing_generated_table(self, smoke_report, tmp_path):
        golden = tmp_path / "golden"
        golden.mkdir()
        (golden / "brand_new_table.md").write_text("| a |\n| 1 |\n")
        problems = check_golden(smoke_report.out_dir / "tables", golden)
        assert any("not generated" in p for p in problems)

    def test_detects_uncommitted_generated_table(self, smoke_report, tmp_path):
        golden = tmp_path / "golden"
        golden.mkdir()
        (golden / "success_ratio.md").write_text(
            smoke_report.tables["success_ratio"].read_text()
        )
        problems = check_golden(smoke_report.out_dir / "tables", golden)
        assert any("missing from goldens" in p for p in problems)

    def test_missing_golden_dir_is_a_problem(self, smoke_report, tmp_path):
        problems = check_golden(
            smoke_report.out_dir / "tables", tmp_path / "nope"
        )
        assert problems and "does not exist" in problems[0]

    def test_text_change_is_drift(self, smoke_report, tmp_path):
        golden = tmp_path / "golden"
        golden.mkdir()
        for path in smoke_report.tables.values():
            (golden / path.name).write_text(
                path.read_text().replace("Flash", "Flashy")
            )
        problems = check_golden(smoke_report.out_dir / "tables", golden)
        assert problems
