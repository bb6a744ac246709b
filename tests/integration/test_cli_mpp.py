"""CLI coverage for multi-part payments: run/sweep flags and errors."""

import pytest

from repro.cli import main


class TestRunMpp:
    def test_mpp_scenario_prints_mpp_columns(self, capsys):
        code = main(
            ["run", "mpp-storm", "--transactions", "20", "--runs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mpp=on" in out
        assert "mpp sr (%)" in out and "parts/pay" in out

    def test_mpp_flag_enables_on_sequential_scenario(self, capsys):
        code = main(
            [
                "run", "ripple-snapshot",
                "--transactions", "15", "--runs", "1",
                "--mpp", "--mpp-param", "split=flash",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mpp=on" in out and "split=flash" in out
        assert "parts/pay" in out

    def test_mpp_param_alone_implies_mpp(self, capsys):
        code = main(
            [
                "run", "ripple-snapshot",
                "--transactions", "10", "--runs", "1",
                "--mpp-param", "max_parts=2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mpp=on" in out

    def test_mpp_free_run_has_no_mpp_columns(self, capsys):
        code = main(
            ["run", "ripple-snapshot", "--transactions", "10", "--runs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mpp" not in out and "parts/pay" not in out

    def test_bad_mpp_param_fails_cleanly(self, capsys):
        code = main(
            [
                "run", "ripple-snapshot",
                "--transactions", "10", "--runs", "1",
                "--mpp-param", "bogus=1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown mpp parameter" in err

    def test_bad_mpp_value_fails_cleanly(self, capsys):
        code = main(
            [
                "run", "ripple-snapshot",
                "--transactions", "10", "--runs", "1",
                "--mpp-param", "max_parts=0",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "max_parts" in err

    def test_nan_mpp_value_fails_cleanly(self, capsys):
        code = main(
            [
                "run", "mpp-storm",
                "--transactions", "10", "--runs", "1",
                "--mpp-param", "deadline=nan",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "deadline must be finite" in err


class TestSweepMpp:
    def test_mpp_axis_sweeps_split_policies(self, capsys):
        code = main(
            [
                "sweep", "mpp-storm",
                "--axis", "mpp.split", "--values", "equal,flash",
                "--transactions", "15", "--runs", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mpp=on" in out
        assert "MPP success ratio" in out
        assert "parts per payment" in out

    def test_mpp_axis_without_mpp_fails_cleanly(self, capsys):
        code = main(
            [
                "sweep", "ripple-snapshot",
                "--axis", "mpp.split", "--values", "equal",
                "--runs", "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--mpp" in err

    def test_mpp_axis_validates_values_eagerly(self, capsys):
        code = main(
            [
                "sweep", "mpp-storm",
                "--axis", "mpp.split", "--values", "equal,bogus",
                "--runs", "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "split" in err

    def test_mpp_flag_enables_axis_on_any_scenario(self, capsys):
        code = main(
            [
                "sweep", "ripple-snapshot", "--mpp",
                "--axis", "mpp.max_parts", "--values", "1,3",
                "--transactions", "10", "--runs", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parts per payment" in out
