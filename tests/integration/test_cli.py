"""Tests for the experiment CLI (python -m repro)."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.topology == "ripple"
        assert args.scale == 10.0


class TestAnalyze:
    def test_prints_both_figures(self, capsys):
        code = main(["analyze", "--samples", "2000", "--days", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ripple" in out and "recurring" in out


class TestSimulate:
    def test_runs_small_comparison(self, capsys):
        code = main(["simulate", "--transactions", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Flash" in out and "Spider" in out
        assert "succ. ratio" in out


class TestTestbed:
    def test_runs_small_testbed(self, capsys):
        code = main(
            ["testbed", "--nodes", "16", "--transactions", "30"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "normalized delay" in out


class TestSubcommandHelp:
    def test_every_subcommand_has_help_and_description(self):
        parser = build_parser()
        subparsers_action = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        listed = {
            choice.dest for choice in subparsers_action._choices_actions
        }
        for name, subparser in subparsers_action.choices.items():
            assert name in listed, f"{name} missing from repro --help"
            assert subparser.description, f"{name} has no description"
        help_lines = {
            choice.dest: choice.help
            for choice in subparsers_action._choices_actions
        }
        assert all(help_lines.values()), help_lines

    def test_run_description_names_scenarios(self):
        import repro.scenarios as scenarios

        parser = build_parser()
        subparsers_action = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        description = subparsers_action.choices["run"].description
        for name in scenarios.scenario_names():
            assert name in description


class TestListScenarios:
    def test_lists_all_registered_names(self, capsys):
        import repro.scenarios as scenarios

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenarios.scenario_names():
            assert name in out

    def test_verbose_lists_parameters(self, capsys):
        assert main(["list-scenarios", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "--workload-param transactions=" in out
        assert "--dynamics-param preset=" in out

    def test_every_printed_override_parses_as_a_run_flag(self, capsys):
        # Each "--<flag> KEY=VALUE  (type) help" line under a scenario
        # must be accepted by `repro run <scenario>` as printed.
        assert main(["list-scenarios", "--verbose"]) == 0
        out = capsys.readouterr().out
        parser = build_parser()
        scenario = None
        overrides = 0
        for line in out.splitlines():
            if line and not line.startswith(" ") and line.endswith(":"):
                scenario = line[:-1]
                continue
            words = line.split()
            if not words or not words[0].endswith("-param"):
                continue
            flag, override = words[0], words[1]
            args = parser.parse_args(["run", scenario, flag, override])
            assert args.name == scenario
            assert getattr(args, flag[2:].replace("-", "_")) == [override]
            overrides += 1
        assert scenario is not None and overrides > 100


class TestRunScenario:
    def test_runs_registered_scenario(self, capsys):
        code = main(
            ["run", "ripple-snapshot", "--transactions", "30", "--runs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario=ripple-snapshot" in out
        assert "Flash" in out and "succ. ratio" in out

    def test_parameter_overrides_flow_through(self, capsys):
        code = main(
            [
                "run",
                "ripple-default",
                "--runs",
                "1",
                "--transactions",
                "20",
                "--topo-param",
                "nodes=40",
                "--topo-param",
                "edges=120",
            ]
        )
        assert code == 0
        assert "scenario=ripple-default" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_override_fails_cleanly(self, capsys):
        code = main(
            ["run", "ripple-default", "--workload-param", "txns=5"]
        )
        assert code == 2
        assert "no parameter" in capsys.readouterr().err

    def test_malformed_override_pair_fails_cleanly(self, capsys):
        code = main(["run", "ripple-default", "--topo-param", "nodes"])
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_dynamics_override_without_dynamics_rejected(self, capsys):
        code = main(
            ["run", "ripple-default", "--dynamics-param", "preset=volatile"]
        )
        assert code == 2
        assert "no dynamics ingredient" in capsys.readouterr().err

    def test_builder_range_error_fails_cleanly(self, capsys):
        # Passes int/float coercion but violates the builder's own check.
        code = main(
            ["run", "ripple-bursty", "--workload-param", "mean_burst_size=0.5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFaultFlags:
    def test_attack_scenario_prints_resilience_columns(self, capsys):
        code = main(
            [
                "run",
                "ripple-jammed",
                "--runs",
                "1",
                "--transactions",
                "30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "! jamming" in out
        assert "attacked sr (%)" in out and "adv. escrow" in out

    def test_fault_attaches_to_a_plain_scenario(self, capsys):
        code = main(
            [
                "run",
                "ripple-default",
                "--fault",
                "hub-kill",
                "--fault-param",
                "hubs=2",
                "--runs",
                "1",
                "--transactions",
                "30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "! hub-kill" in out
        assert "attacked sr (%)" in out

    def test_unknown_fault_fails_cleanly(self, capsys):
        code = main(["run", "ripple-default", "--fault", "emp-blast"])
        assert code == 2
        assert "unknown fault" in capsys.readouterr().err

    def test_fault_param_without_fault_rejected(self, capsys):
        code = main(
            ["run", "ripple-default", "--fault-param", "channels=4"]
        )
        assert code == 2
        assert "no fault ingredient" in capsys.readouterr().err

    def test_bad_fault_param_fails_cleanly(self, capsys):
        code = main(
            [
                "run",
                "ripple-jammed",
                "--fault-param",
                "fraction=1.5",
            ]
        )
        assert code == 2
        assert "bad fault parameters" in capsys.readouterr().err

    def test_verbose_listing_shows_fault_params(self, capsys):
        assert main(["list-scenarios", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "fault = jamming" in out
        assert "--fault-param channels=" in out

    def test_fault_axis_sweep_validates_values_eagerly(self, capsys):
        code = main(
            [
                "sweep",
                "ripple-jammed",
                "--axis",
                "fault.fraction",
                "--values",
                "0.5,2.0",
            ]
        )
        assert code == 2
        assert "bad fault axis value" in capsys.readouterr().err

    def test_fault_axis_needs_a_fault_ingredient(self, capsys):
        code = main(
            [
                "sweep",
                "ripple-default",
                "--axis",
                "fault.channels",
                "--values",
                "2,4",
            ]
        )
        assert code == 2
        assert "needs a fault ingredient" in capsys.readouterr().err


class TestSeedFlag:
    def test_global_seed_survives_subcommand_parse(self):
        args = build_parser().parse_args(["--seed", "9", "run", "x"])
        assert args.seed == 9

    def test_subcommand_seed_overrides_global(self):
        args = build_parser().parse_args(["run", "x", "--seed", "4"])
        assert args.seed == 4

    def test_subcommand_seed_default_is_global_default(self):
        args = build_parser().parse_args(["run", "x"])
        assert args.seed == 0


class TestRunOut:
    def test_out_writes_records_and_table(self, tmp_path, capsys):
        out = tmp_path / "run1"
        code = main(
            [
                "run",
                "ripple-snapshot",
                "--transactions",
                "20",
                "--runs",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "records.jsonl").exists()
        assert (out / "comparison.md").exists()
        assert "records:" in capsys.readouterr().out

    def test_rerun_resumes_from_records(self, tmp_path, capsys):
        out = tmp_path / "run1"
        argv = [
            "run",
            "ripple-snapshot",
            "--transactions",
            "20",
            "--runs",
            "1",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        before = (out / "records.jsonl").read_bytes()
        assert main(argv) == 0
        second = capsys.readouterr().out
        # No recomputation: identical records and identical metric table.
        assert (out / "records.jsonl").read_bytes() == before
        assert "4 new" in first

        def table(text):
            return [l for l in text.splitlines() if not l.startswith("records:")]

        assert table(first) == table(second)
        # Reuse is reported, never silent.
        assert "4 resumed from previous records" in second


class TestSweepCLI:
    ARGS = [
        "sweep",
        "ripple-snapshot",
        "--axis",
        "topology.scale",
        "--values",
        "1.0,2.0",
        "--runs",
        "1",
        "--transactions",
        "20",
    ]

    def test_prints_series_tables(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "success ratio (%) \\ topology.scale" in out
        assert "probe messages" in out

    def test_bad_axis_fails_cleanly(self, capsys):
        code = main(
            ["sweep", "ripple-snapshot", "--axis", "scale", "--values", "1"]
        )
        assert code == 2
        assert "ROLE.KEY" in capsys.readouterr().err

    def test_unknown_axis_key_fails_cleanly(self, capsys):
        code = main(
            [
                "sweep",
                "ripple-snapshot",
                "--axis",
                "topology.nope",
                "--values",
                "1",
            ]
        )
        assert code == 2
        assert "no parameter" in capsys.readouterr().err

    def test_resume_requires_out(self, capsys):
        code = main(self.ARGS + ["--resume"])
        assert code == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_existing_records_require_resume(self, tmp_path, capsys):
        argv = self.ARGS + ["--out", str(tmp_path / "s")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "--resume" in capsys.readouterr().err
        assert main(argv + ["--resume"]) == 0

    def test_out_writes_sweep_markdown(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        assert (out / "sweep.md").exists()
        assert (out / "records.jsonl").exists()


class TestReportCLI:
    def test_small_report_runs(self, tmp_path, capsys):
        code = main(
            [
                "report",
                "--out",
                str(tmp_path / "r"),
                "--smoke",
                "--runs",
                "1",
                "--transactions",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "r" / "REPORT.md").exists()
        assert (tmp_path / "r" / "tables" / "success_ratio.md").exists()
        assert "report:" in out

    def test_check_golden_flags_drift(self, tmp_path, capsys):
        golden = tmp_path / "golden"
        golden.mkdir()
        (golden / "success_ratio.md").write_text("| nothing |\n")
        code = main(
            [
                "report",
                "--out",
                str(tmp_path / "r"),
                "--smoke",
                "--runs",
                "1",
                "--transactions",
                "10",
                "--check-golden",
                str(golden),
            ]
        )
        assert code == 1
        assert "golden drift" in capsys.readouterr().err


class TestFigure:
    def test_fig3(self, capsys):
        assert main(["figure", "fig3"]) == 0
        assert "Bitcoin" in capsys.readouterr().out

    def test_fig8_small(self, capsys):
        code = main(
            ["figure", "fig8", "--transactions", "40", "--runs", "1"]
        )
        assert code == 0
        assert "Flash savings" in capsys.readouterr().out

    def test_ablation_order_small(self, capsys):
        code = main(
            ["figure", "ablation-order", "--transactions", "40", "--runs", "1"]
        )
        assert code == 0
        assert "mice path order" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
