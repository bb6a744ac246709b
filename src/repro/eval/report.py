"""`repro report`: the paper's headline comparison as tables + figures.

Reproduces the source paper's core comparative claim — Flash vs the four
baselines (Spider, SpeedyMurmurs, Shortest Path, Landmark) on the
bundled Ripple/Lightning snapshots and the synthetic topologies — and
writes, under an output directory (``results/`` by default):

* ``records.jsonl`` — the experiment store the runs write through
  (regenerating a report resumes from it; delete it or pass ``--fresh``
  to recompute),
* ``tables/*.md`` — one markdown pivot per headline metric (success
  ratio, succeeded volume, probing overhead) plus the mice/elephant
  breakdown, mean ± 95% CI across seeds, fixed float precision; fault
  scenarios additionally populate the resilience tables
  (docs/RESILIENCE.md),
* ``figures/*.svg`` — grouped-bar charts (deterministic SVG),
* ``summary.json`` — the aggregates as canonical JSON,
* ``REPORT.md`` — the assembled report with provenance and the
  table ↔ paper-figure mapping.

The scenario set and per-scenario runs/transactions come from each
scenario's :class:`~repro.scenarios.registry.EvalMatrix`;
``smoke=True`` selects the reduced deterministic subset whose tables
are golden-checked in CI (see :func:`check_golden` and
``docs/RESULTS.md`` for the methodology).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.eval.aggregate import Pivot, pivot_markdown, pivot_metric
from repro.eval.figures import save_grouped_bars
from repro.eval.store import (
    CANONICAL_DIGITS,
    ExperimentStore,
    canonical_json,
    machine_provenance,
)
from repro.sim.factories import landmark_factory, paper_benchmark_factories
from repro.sim.metrics import BASE_FAMILY, FAMILIES, TableSpec
from repro.sim.runner import cell_digest, compare_schemes, resolve_run_config

#: Default output directory (repo-relative), per the results methodology.
DEFAULT_OUT = "results"

#: Relative tolerance for golden-table drift checks.  Generation is
#: deterministic, so goldens normally match byte-for-byte; the tolerance
#: only absorbs last-digit formatting noise, never behavioural drift.
GOLDEN_REL_TOL = 1e-6
GOLDEN_ABS_TOL = 1e-9


def report_factories():
    """Flash plus all four baselines, keyed by display name."""
    return {**paper_benchmark_factories(), "Landmark": landmark_factory()}


#: The headline tables, in report order: the paper's metrics, then each
#: optional metric family's tables (:data:`repro.sim.metrics.FAMILIES`).
#: ``figure`` maps each table to the paper figure it reproduces
#: (documented in docs/RESULTS.md).  A table shows the scenarios whose
#: records carry its metric and is skipped when none does: the smoke
#: goldens hold the concurrency tables of ``payment-storm`` and no other
#: family's.
TABLES: tuple[TableSpec, ...] = tuple(
    table for family in (BASE_FAMILY, *FAMILIES) for table in family.tables
)


@dataclass
class ReportArtifacts:
    """Everything one :func:`generate_report` invocation wrote."""

    out_dir: Path
    report_path: Path
    summary_path: Path
    tables: dict[str, Path] = field(default_factory=dict)
    figures: dict[str, Path] = field(default_factory=dict)


def _report_cell_params(scenario, transactions: int) -> dict[str, object]:
    """The cell-parameter mapping a report run is keyed by."""
    return {"transactions": transactions, "base": scenario.cell_params()}


def generate_report(
    out_dir: str | Path = DEFAULT_OUT,
    smoke: bool = False,
    runs: int | None = None,
    transactions: int | None = None,
    seed: int = 0,
    workers: int | None = None,
    scenario_names: Sequence[str] | None = None,
    fresh: bool = False,
    progress: Callable[[str], None] | None = None,
) -> ReportArtifacts:
    """Run the headline matrix and write tables, figures, and REPORT.md.

    ``runs``/``transactions`` override every scenario's
    :class:`~repro.scenarios.registry.EvalMatrix` defaults when given;
    ``scenario_names`` restricts the matrix (default: every scenario
    with ``eval_matrix.report`` — the smoke subset when ``smoke``).
    Completed cells are resumed from ``<out_dir>/records.jsonl``;
    ``fresh=True`` clears the store first.
    """
    import repro.scenarios as scenarios_mod

    say = progress or (lambda message: None)
    out_dir = Path(out_dir)
    store = ExperimentStore(out_dir)
    if fresh:
        store.clear()

    if scenario_names is None:
        selected = scenarios_mod.report_scenarios(smoke=smoke)
    else:
        selected = [
            scenarios_mod.get_scenario(name) for name in scenario_names
        ]
    if not selected:
        raise ValueError("no scenarios selected for the report matrix")

    factories = report_factories()
    schemes = list(factories)
    configs: dict[str, tuple[int, int]] = {}
    run_configs = {
        scenario.name: resolve_run_config(scenario.name) for scenario in selected
    }
    for scenario in selected:
        matrix_runs, matrix_transactions = scenario.eval_matrix.config(smoke)
        n_runs = runs if runs is not None else matrix_runs
        n_transactions = (
            transactions if transactions is not None else matrix_transactions
        )
        configs[scenario.name] = (n_runs, n_transactions)
        say(
            f"report: {scenario.name} x {len(schemes)} schemes, "
            f"{n_runs} seeds, {n_transactions} transactions"
            + (
                f" [engine={scenario.engine}]"
                if scenario.engine != "sequential"
                else ""
            )
        )
        compare_schemes(
            scenario.factory(
                workload_overrides={"transactions": n_transactions}
            ),
            factories,
            run_configs[scenario.name],
            runs=n_runs,
            base_seed=seed,
            workers=workers,
            store=store,
            experiment=scenario.name,
            cell_params=_report_cell_params(scenario, n_transactions),
        )

    # ------------------------------------------------ aggregate + render
    scenario_order = [scenario.name for scenario in selected]
    wanted: dict[str, tuple[str, int]] = {}
    for scenario in selected:
        n_runs, n_transactions = configs[scenario.name]
        # Same recipe the runner keys its records by — never re-derive
        # the mapping here (a mismatch selects zero records).
        _, digest = cell_digest(
            _report_cell_params(scenario, n_transactions),
            config=run_configs[scenario.name],
        )
        wanted[scenario.name] = (digest, n_runs)
    records = [
        record
        for record in store.records()
        if record["scenario"] in wanted
        and record["base_seed"] == seed
        and record["params_hash"] == wanted[record["scenario"]][0]
        and record["run_index"] < wanted[record["scenario"]][1]
        and record["scheme"] in factories
    ]
    for name, (_, n_runs) in wanted.items():
        found = sum(1 for record in records if record["scenario"] == name)
        expected = n_runs * len(factories)
        if found != expected:
            raise RuntimeError(
                f"report aggregation selected {found}/{expected} records "
                f"for {name!r} — store keying drifted from the runs just "
                "executed (this is a bug, not a user error)"
            )

    tables_dir = out_dir / "tables"
    tables_dir.mkdir(parents=True, exist_ok=True)
    figures_dir = out_dir / "figures"
    artifacts = ReportArtifacts(
        out_dir=out_dir,
        report_path=out_dir / "REPORT.md",
        summary_path=out_dir / "summary.json",
    )

    summary: dict[str, dict] = {}
    sections: list[str] = []
    for table in TABLES:
        table_records = [
            record for record in records if table.metric in record["metrics"]
        ]
        present = {record["scenario"] for record in table_records}
        table_scenarios = [name for name in scenario_order if name in present]
        if not table_scenarios:
            continue
        pivot = pivot_metric(table_records, table.metric)
        body = pivot_markdown(
            pivot,
            scenarios=table_scenarios,
            schemes=schemes,
            spec=table.spec,
            scale=table.scale,
        )
        seeds = {name: configs[name][0] for name in table_scenarios}
        caption = (
            f"Mean ± 95% CI over "
            f"{', '.join(f'{seeds[s]}' for s in table_scenarios)} seeds "
            f"({', '.join(table_scenarios)}); maps to {table.figure}."
        )
        text = f"# {table.title}\n\n{caption}\n\n{body}\n"
        path = tables_dir / f"{table.slug}.md"
        path.write_text(text, encoding="utf-8")
        artifacts.tables[table.slug] = path
        sections.append(f"## {table.title}\n\n{caption}\n\n{body}\n")
        summary[table.slug] = {
            scenario: {
                scheme: {
                    "n": stats.n,
                    "mean": stats.mean,
                    "ci95": stats.ci95,
                }
                for scheme, stats in by_scheme.items()
            }
            for scenario, by_scheme in pivot.items()
        }
        if table.chart:
            chart_series = {
                scheme: [
                    pivot.get(scenario, {}).get(scheme).mean * table.scale
                    if pivot.get(scenario, {}).get(scheme)
                    else 0.0
                    for scenario in table_scenarios
                ]
                for scheme in schemes
            }
            figure_path = save_grouped_bars(
                figures_dir / table.slug,
                table.title,
                table_scenarios,
                chart_series,
            )
            artifacts.figures[table.slug] = figure_path
            say(f"report: wrote {figure_path}")

    artifacts.summary_path.write_text(
        canonical_json(summary, float_digits=CANONICAL_DIGITS) + "\n",
        encoding="utf-8",
    )

    provenance = machine_provenance()
    mode = "smoke" if smoke else "full"
    header = [
        "# Flash reproduction — headline report",
        "",
        f"Mode: **{mode}** · base seed {seed} · schemes: "
        + ", ".join(schemes),
        "",
        "| scenario | seeds | transactions | engine |",
        "| --- | --- | --- | --- |",
    ]
    engines = {scenario.name: scenario.engine for scenario in selected}
    header.extend(
        f"| {name} | {configs[name][0]} | {configs[name][1]} | "
        f"{engines[name]} |"
        for name in scenario_order
    )
    header.extend(
        [
            "",
            f"Produced by repro {provenance['repro_version']} on "
            f"Python {provenance['python']} ({provenance['platform']}/"
            f"{provenance['machine']}).  Methodology: docs/RESULTS.md.  "
            "Regenerate with `python -m repro report"
            + (" --smoke" if smoke else "")
            + "`.",
            "",
        ]
    )
    if artifacts.figures:
        header.append("Figures: " + ", ".join(
            f"[{slug}]({path.relative_to(out_dir).as_posix()})"
            for slug, path in artifacts.figures.items()
        ) + "")
        header.append("")
    artifacts.report_path.write_text(
        "\n".join(header) + "\n" + "\n".join(sections), encoding="utf-8"
    )
    say(f"report: wrote {artifacts.report_path}")
    return artifacts


# --------------------------------------------------------------------------
# Golden-table drift checks
# --------------------------------------------------------------------------


def _drift_messages(
    name: str,
    generated: str,
    golden: str,
    rel_tol: float,
    abs_tol: float,
) -> list[str]:
    """Cell-wise comparison of two markdown tables; numeric cells use
    tolerances, text cells must match exactly."""
    problems: list[str] = []
    generated_lines = generated.strip().splitlines()
    golden_lines = golden.strip().splitlines()
    if len(generated_lines) != len(golden_lines):
        return [
            f"{name}: line count {len(generated_lines)} != golden "
            f"{len(golden_lines)}"
        ]
    for line_no, (generated_line, golden_line) in enumerate(
        zip(generated_lines, golden_lines), start=1
    ):
        generated_tokens = generated_line.replace("|", " ").split()
        golden_tokens = golden_line.replace("|", " ").split()
        if len(generated_tokens) != len(golden_tokens):
            problems.append(f"{name}:{line_no}: token count differs")
            continue
        for generated_token, golden_token in zip(
            generated_tokens, golden_tokens
        ):
            try:
                value = float(generated_token)
                golden_value = float(golden_token)
            except ValueError:
                if generated_token != golden_token:
                    problems.append(
                        f"{name}:{line_no}: {generated_token!r} != "
                        f"{golden_token!r}"
                    )
                continue
            if not math.isclose(
                value, golden_value, rel_tol=rel_tol, abs_tol=abs_tol
            ):
                problems.append(
                    f"{name}:{line_no}: {value!r} drifts from golden "
                    f"{golden_value!r} (rel_tol={rel_tol})"
                )
    return problems


def check_golden(
    tables_dir: str | Path,
    golden_dir: str | Path,
    rel_tol: float = GOLDEN_REL_TOL,
    abs_tol: float = GOLDEN_ABS_TOL,
) -> list[str]:
    """Compare generated tables against committed goldens.

    Returns a list of human-readable drift messages (empty = no drift).
    Every ``*.md`` in ``golden_dir`` must exist in ``tables_dir`` and
    match cell-wise within tolerance; generated tables missing from the
    golden set are also reported so new tables get committed.
    """
    tables_dir = Path(tables_dir)
    golden_dir = Path(golden_dir)
    if not golden_dir.is_dir():
        return [f"golden directory {golden_dir} does not exist"]
    problems: list[str] = []
    golden_files = sorted(golden_dir.glob("*.md"))
    if not golden_files:
        problems.append(f"golden directory {golden_dir} has no *.md files")
    for golden_path in golden_files:
        generated_path = tables_dir / golden_path.name
        if not generated_path.exists():
            problems.append(f"{golden_path.name}: not generated")
            continue
        problems.extend(
            _drift_messages(
                golden_path.name,
                generated_path.read_text(encoding="utf-8"),
                golden_path.read_text(encoding="utf-8"),
                rel_tol,
                abs_tol,
            )
        )
    golden_names = {path.name for path in golden_files}
    for generated_path in sorted(tables_dir.glob("*.md")):
        if generated_path.name not in golden_names:
            problems.append(
                f"{generated_path.name}: generated but missing from goldens "
                f"({golden_dir})"
            )
    return problems
