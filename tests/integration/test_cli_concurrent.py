"""CLI coverage for the concurrent engine: run/sweep knobs and errors."""

import pytest

from repro.cli import main


class TestRunConcurrent:
    def test_concurrent_scenario_prints_latency_columns(self, capsys):
        code = main(
            ["run", "timeout-stress", "--transactions", "20", "--runs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine=concurrent" in out
        assert "p95 lat (s)" in out and "timeouts" in out

    def test_engine_flag_switches_sequential_scenario(self, capsys):
        code = main(
            [
                "run",
                "ripple-snapshot",
                "--transactions",
                "15",
                "--runs",
                "1",
                "--engine",
                "concurrent",
                "--load",
                "50",
                "--timeout",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine=concurrent" in out
        assert "load=50.0" in out and "timeout=5.0" in out
        assert "p95 lat (s)" in out

    def test_sequential_scenario_has_no_latency_columns(self, capsys):
        code = main(
            ["run", "ripple-snapshot", "--transactions", "10", "--runs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "p95 lat (s)" not in out

    def test_engine_override_back_to_sequential(self, capsys):
        code = main(
            [
                "run",
                "timeout-stress",
                "--transactions",
                "10",
                "--runs",
                "1",
                "--engine",
                "sequential",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "p95 lat (s)" not in out

    def test_engine_knobs_without_concurrent_engine_fail_cleanly(self, capsys):
        code = main(
            [
                "run",
                "ripple-snapshot",
                "--transactions",
                "10",
                "--runs",
                "1",
                "--load",
                "500",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "no effect" in err

    def test_bad_engine_knob_fails_cleanly(self, capsys):
        code = main(
            [
                "run",
                "timeout-stress",
                "--transactions",
                "10",
                "--runs",
                "1",
                "--timeout",
                "-2",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "timeout" in err

    def test_nan_engine_knob_fails_cleanly(self, capsys):
        code = main(
            [
                "run",
                "timeout-stress",
                "--transactions",
                "20",
                "--runs",
                "1",
                "--load",
                "nan",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "load must be finite" in err

    def test_store_round_trip(self, tmp_path, capsys):
        argv = [
            "run",
            "timeout-stress",
            "--transactions",
            "15",
            "--runs",
            "1",
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "1 new" in first.splitlines()[-1] or "new" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed from previous records" in second


class TestSweepEngineAxis:
    def test_engine_axis_sweeps_load(self, capsys):
        code = main(
            [
                "sweep",
                "timeout-stress",
                "--axis",
                "engine.timeout",
                "--values",
                "0.5,2.0",
                "--transactions",
                "15",
                "--runs",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "p95 latency (s)" in out
        assert "timeout failures" in out

    def test_engine_axis_requires_concurrent_engine(self, capsys):
        code = main(
            [
                "sweep",
                "ripple-snapshot",
                "--axis",
                "engine.load",
                "--values",
                "1,10",
                "--runs",
                "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "concurrent" in err

    def test_engine_axis_unknown_key_fails_cleanly(self, capsys):
        code = main(
            [
                "sweep",
                "timeout-stress",
                "--axis",
                "engine.lod",
                "--values",
                "1,10",
                "--runs",
                "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown concurrency parameter" in err
