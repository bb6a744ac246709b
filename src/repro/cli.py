"""Command-line interface: run experiments without writing a script.

Examples
--------
::

    python -m repro analyze                      # Fig 3/4 measurement study
    python -m repro testbed --nodes 50 --transactions 500
    python -m repro figure fig6 --topology lightning
    python -m repro figure fig10
    python -m repro figure ablation-k
    python -m repro list-scenarios --verbose
    python -m repro run lightning-diurnal --runs 3 --workers 2
    python -m repro run ripple-churn --dynamics-param preset=volatile
    python -m repro run ripple-default --topo-param scale=10 --runs 1
    python -m repro run ripple-snapshot --seed 7 --out results/run1
    python -m repro run jam-hubs --runs 3                     # attack scenario
    python -m repro run ripple-default --fault jamming --fault-param channels=16
    python -m repro run payment-storm --runs 3                # concurrent engine
    python -m repro run ripple-default --engine concurrent --load 100 --timeout 10
    python -m repro sweep ripple-default --axis topology.scale \
        --values 1,10,30,60                                # Fig 6's axis
    python -m repro sweep ripple-default --axis topology.capacity_median \
        --values 125,250,500 --out results/cap-sweep --resume
    python -m repro sweep payment-storm --axis engine.load --values 1,300,3000
    python -m repro run mpp-storm --runs 3                    # multi-part payments
    python -m repro sweep mpp-storm --axis mpp.split --values equal,proportional,flash
    python -m repro report --out results
    python -m repro report --smoke --check-golden tests/golden/report_smoke

``figure`` accepts: fig3, fig4, fig6, fig7, fig8, fig9, fig10, fig11,
fig12, fig13, ablation-k, ablation-order, ablation-paths.  Figs 6-11 and
the ablations run on the registered ``ripple-default`` or
``lightning-default`` scenario (``--topology``) at benchmark scale; pass
``--paper-scale`` for the full-size topologies and 2,000 payments (slow).

``run`` executes any scenario registered in the
:mod:`repro.scenarios` catalog (``list-scenarios`` prints it) and
compares the four paper schemes on it; ``--topo-param``/
``--workload-param``/``--dynamics-param``/``--fault-param KEY=VALUE``
override any registered parameter.  ``--engine
{sequential,concurrent}`` selects the simulation engine (default: the
scenario's registered engine) and
``--load``/``--timeout``/``--hop-latency``/``--max-retries``/
``--retry-delay`` set the concurrent engine's knobs — see
docs/CONCURRENCY.md.  ``--fault NAME`` attaches (or swaps in) an
adversarial fault model — jamming, hub-kill, liquidity-drain, or
partition — and the comparison table grows the resilience metric
columns; see docs/RESILIENCE.md.  ``--mpp`` (or any ``--mpp-param
KEY=VALUE``) turns on multi-part payments — qualifying payments fan
out into parts that settle all-or-nothing — and the table grows the
MPP columns; see docs/CONCURRENCY.md#multi-part-payments.

``sweep`` runs one registered scenario across several values of one
parameter (``--axis ROLE.KEY --values V1,V2,...``, where ROLE is
``topology``/``workload``/``dynamics``/``fault``, ``fee`` — sugar for
the dynamics axes of fee-market scenarios — ``engine`` for concurrent
scenarios, or ``mpp`` when multi-part payments are on); with
``--out DIR`` every completed (scheme, seed) cell is
persisted to ``DIR/records.jsonl`` and ``--resume`` re-invokes an
interrupted sweep without recomputing completed cells.  ``report``
regenerates the paper's headline comparison (Flash vs all four
baselines) as markdown tables + figures under ``results/`` — see
docs/RESULTS.md.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.eval import (
    ablation_k_sweep,
    ablation_mice_order,
    ablation_path_finding,
    fig3_size_cdfs,
    fig4_recurrence,
    fig6_capacity_sweep,
    fig7_load_sweep,
    fig8_probing_overhead,
    fig9_fee_optimization,
    fig10_threshold_sweep,
    fig11_mice_paths_sweep,
    testbed_figure,
)
from repro.errors import ReproError
from repro.sim import format_table, paper_benchmark_factories
from repro.sim.metrics import BASE_FAMILY, RUN_ORDER, SWEEP_ORDER


def _figure_scenario(args):
    """The registered scenario ``figure`` runs, sized by its flags.

    ``--paper-scale`` sets the crawled network sizes of §4.1 and 2,000
    payments; ``--transactions`` overrides the payment count.
    """
    import dataclasses

    import repro.scenarios as scenarios
    from repro.network.topology import (
        LIGHTNING_CHANNELS,
        LIGHTNING_NODES,
        RIPPLE_EDGES,
        RIPPLE_NODES,
    )

    scenario = scenarios.get_scenario(f"{args.topology}-default")
    topology_params = dict(scenario.topology_params)
    workload_params = dict(scenario.workload_params)
    if args.paper_scale:
        if args.topology == "ripple":
            topology_params.update(nodes=RIPPLE_NODES, edges=RIPPLE_EDGES)
        else:
            topology_params.update(
                nodes=LIGHTNING_NODES, edges=LIGHTNING_CHANNELS
            )
        workload_params["transactions"] = 2_000
    if args.transactions:
        workload_params["transactions"] = args.transactions
    return dataclasses.replace(
        scenario,
        topology_params=topology_params,
        workload_params=workload_params,
    )


def _cmd_analyze(args) -> int:
    print(fig3_size_cdfs(n_samples=args.samples, seed=args.seed).format())
    print()
    print(
        fig4_recurrence(
            days=args.days,
            transactions_per_day=1_000,
            n_nodes=500,
            seed=args.seed,
        ).format()
    )
    return 0


def _cmd_testbed(args) -> int:
    result = testbed_figure(
        n_nodes=args.nodes,
        intervals=((args.capacity_low, args.capacity_high),),
        n_transactions=args.transactions,
        seed=args.seed,
    )
    print(result.format())
    return 0


def _cmd_figure(args) -> int:
    scenario = _figure_scenario(args)
    runs = args.runs
    seed = args.seed
    name = args.name.lower()
    if name == "fig3":
        print(fig3_size_cdfs(seed=seed).format())
    elif name == "fig4":
        print(fig4_recurrence(seed=seed).format())
    elif name == "fig6":
        print(fig6_capacity_sweep(scenario, runs=runs, seed=seed).format())
    elif name == "fig7":
        print(fig7_load_sweep(scenario, runs=runs, seed=seed).format())
    elif name == "fig8":
        print(fig8_probing_overhead(scenario, runs=runs, seed=seed).format())
    elif name == "fig9":
        print(fig9_fee_optimization(scenario, runs=runs, seed=seed).format())
    elif name == "fig10":
        print(fig10_threshold_sweep(scenario, runs=runs, seed=seed).format())
    elif name == "fig11":
        print(fig11_mice_paths_sweep(scenario, runs=runs, seed=seed).format())
    elif name == "fig12":
        print(
            testbed_figure(
                n_nodes=50, n_transactions=args.transactions or 2_000, seed=seed
            ).format()
        )
    elif name == "fig13":
        print(
            testbed_figure(
                n_nodes=100, n_transactions=args.transactions or 2_000, seed=seed
            ).format()
        )
    elif name == "ablation-k":
        print(ablation_k_sweep(scenario, runs=runs, seed=seed).format())
    elif name == "ablation-order":
        print(ablation_mice_order(scenario, runs=runs, seed=seed).format())
    elif name == "ablation-paths":
        print(ablation_path_finding(scenario, seed=seed).format())
    else:
        print(f"unknown figure {args.name!r}", file=sys.stderr)
        return 2
    return 0


def _parse_param_overrides(pairs: Sequence[str] | None) -> dict[str, str]:
    """``KEY=VALUE`` strings -> dict (values coerced later by ParamSpec).

    Malformed pairs raise :class:`repro.scenarios.ScenarioError`, so
    ``_cmd_run`` reports them on its normal exit-2 error path.
    """
    from repro.scenarios import ScenarioError

    overrides: dict[str, str] = {}
    for pair in pairs or ():
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ScenarioError(f"expected KEY=VALUE, got {pair!r}")
        overrides[key.strip()] = value
    return overrides


def _cmd_list_scenarios(args) -> int:
    import repro.scenarios as scenarios

    rows = []
    for scenario in scenarios.iter_scenarios():
        rows.append(
            [
                scenario.name,
                scenario.ingredients(),
                scenario.figure or "-",
                scenario.description,
            ]
        )
    print(format_table(["scenario", "ingredients", "paper figure", "description"], rows))
    if not args.verbose:
        print("\n(--verbose lists each scenario's parameters)")
        return 0
    for scenario in scenarios.iter_scenarios():
        print(f"\n{scenario.name}:")
        sections = [
            ("topology", scenarios.TOPOLOGIES.get(scenario.topology)),
            ("workload", scenarios.WORKLOADS.get(scenario.workload)),
        ]
        if scenario.dynamics:
            sections.append(("dynamics", scenarios.DYNAMICS.get(scenario.dynamics)))
        if scenario.faults:
            sections.append(("fault", scenarios.FAULTS.get(scenario.faults)))
        for role, entry in sections:
            print(f"  {role} = {entry.name}: {entry.description}")
            flag, defaults = {
                "topology": ("--topo-param", scenario.topology_params),
                "workload": ("--workload-param", scenario.workload_params),
                "dynamics": ("--dynamics-param", scenario.dynamics_params),
                "fault": ("--fault-param", scenario.fault_params),
            }[role]
            for spec in entry.params:
                default = defaults.get(spec.name, spec.default)
                print(
                    f"    {flag} {spec.name}={default!r}"
                    f"  ({spec.kind.__name__}) {spec.help}"
                )
    return 0


#: ConcurrencyConfig knob -> (type, help) of its same-named CLI flag.
_ENGINE_FLAGS = {
    "load": (
        float,
        "offered-load multiplier: compress all arrival times N-fold",
    ),
    "timeout": (
        float,
        "seconds an in-flight hold may live before it is released",
    ),
    "hop_latency": (float, "per-hop message latency in seconds"),
    "max_retries": (int, "engine-level re-attempts for failed reservations"),
    "retry_delay": (float, "seconds between engine-level retries"),
    "retry_backoff": (
        float,
        "exponential multiplier on successive retry waits; 1.0 keeps "
        "every wait at --retry-delay",
    ),
    "retry_jitter": (
        float,
        "stretch each retry wait by a seeded uniform factor in "
        "[1, 1+J], de-synchronizing retry storms",
    ),
}


def _engine_overrides(args) -> dict[str, object]:
    """Concurrent-engine knobs the user actually passed on the CLI."""
    return {
        knob: getattr(args, knob)
        for knob in _ENGINE_FLAGS
        if getattr(args, knob, None) is not None
    }


def _add_engine_flags(subparser: argparse.ArgumentParser) -> None:
    """The engine selector + concurrent-engine knob flags (run/sweep)."""
    subparser.add_argument(
        "--engine",
        choices=("sequential", "concurrent"),
        default=None,
        help="simulation engine (default: the scenario's registered engine)",
    )
    for knob, (kind, text) in _ENGINE_FLAGS.items():
        subparser.add_argument(
            "--" + knob.replace("_", "-"),
            type=kind,
            default=None,
            help=f"{text} (concurrent engine)",
        )


def _add_mpp_flags(subparser: argparse.ArgumentParser) -> None:
    """The multi-part payment flags (run/sweep)."""
    subparser.add_argument(
        "--mpp",
        action="store_true",
        help="enable multi-part payments: qualifying payments fan out "
        "into parts that escrow independently and settle all-or-nothing "
        "(docs/CONCURRENCY.md#multi-part-payments)",
    )
    subparser.add_argument(
        "--mpp-param",
        action="append",
        metavar="KEY=VALUE",
        help="override an MPP knob (repeatable; implies --mpp): "
        "max_parts, split, threshold, min_part_amount, part_retries, "
        "part_retry_delay, deadline",
    )


def _mpp_overrides(args) -> dict[str, str] | None:
    """The CLI's MPP knob mapping, or ``None`` when MPP flags are absent.

    ``None`` defers to the scenario's registered ``mpp_params`` (via
    :func:`repro.sim.runner.resolve_run_config`); a mapping — even an
    empty one from a bare ``--mpp`` — enables MPP with these knobs
    layered over the scenario's.
    """
    params = _parse_param_overrides(getattr(args, "mpp_param", None))
    if params or getattr(args, "mpp", False):
        return params
    return None


def _add_fault_flags(subparser: argparse.ArgumentParser) -> None:
    """The adversarial fault-injection flags (run/sweep)."""
    subparser.add_argument(
        "--fault",
        metavar="NAME",
        default=None,
        help="attach an adversarial fault model (jamming, hub-kill, "
        "liquidity-drain, partition) or swap the scenario's registered "
        "one — see docs/RESILIENCE.md",
    )
    subparser.add_argument(
        "--fault-param",
        action="append",
        metavar="KEY=VALUE",
        help="override a fault-model parameter (repeatable)",
    )


def _apply_fault_flag(scenario, fault_name: str | None):
    """Attach or swap the scenario's fault ingredient for ``--fault``.

    Swapping to a *different* model drops the scenario's registered
    ``fault_params`` (they belong to the old model's parameter space);
    repeating the registered name keeps them.
    """
    if fault_name is None or fault_name == scenario.faults:
        return scenario
    import dataclasses

    import repro.scenarios as scenarios

    scenarios.FAULTS.get(fault_name)  # unknown names fail here, eagerly
    return dataclasses.replace(scenario, faults=fault_name, fault_params={})


def _knob_note(label: str, knobs: dict) -> str:
    """The run header's ``label (k=v, ...)`` note, or the bare label."""
    if not knobs:
        return label
    return f"{label} ({', '.join(f'{k}={v}' for k, v in sorted(knobs.items()))})"


def _cmd_run(args) -> int:
    import repro.scenarios as scenarios
    from repro.sim.runner import compare_schemes, resolve_run_config

    try:
        scenario = _apply_fault_flag(
            scenarios.get_scenario(args.name), args.fault
        )
        topo_overrides = _parse_param_overrides(args.topo_param)
        workload_overrides = _parse_param_overrides(args.workload_param)
        dynamics_overrides = _parse_param_overrides(args.dynamics_param)
        fault_overrides = _parse_param_overrides(args.fault_param)
        if args.transactions is not None:
            workload_overrides["transactions"] = args.transactions
        factory = scenario.factory(
            topology_overrides=topo_overrides,
            workload_overrides=workload_overrides,
            dynamics_overrides=dynamics_overrides,
            fault_overrides=fault_overrides,
        )
        engine_overrides = _engine_overrides(args)
        mpp_overrides = _mpp_overrides(args)
        config = resolve_run_config(
            args.name, args.engine, engine_overrides, mpp_overrides
        )
    except (scenarios.ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = None
    cells_before = 0
    if args.out:
        from repro.eval.store import ExperimentStore

        store = ExperimentStore(args.out)
        # Fold in shards orphaned by an earlier killed run *before*
        # snapshotting, so recovered cells count as resumed, not new.
        store.merge_shards()
        cells_before = len(store)
    # The header names the knobs as layered: the CLI's over the
    # scenario's registered ones.
    notes = ""
    if config.concurrency is not None:
        notes += _knob_note(
            " engine=concurrent", {**scenario.engine_params, **engine_overrides}
        )
    if config.mpp is not None:
        notes += _knob_note(
            " mpp=on", {**(scenario.mpp_params or {}), **(mpp_overrides or {})}
        )
    print(
        f"scenario={scenario.name} ({scenario.ingredients()}) "
        f"runs={args.runs} seed={args.seed}{notes}"
    )
    try:
        selected = _filter_factories(
            paper_benchmark_factories(), getattr(args, "scheme", None)
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        comparison = compare_schemes(
            factory,
            selected,
            config,
            runs=args.runs,
            base_seed=args.seed,
            workers=args.workers,
            store=store,
            experiment=scenario.name,
            # The cell key covers the CLI overrides *and* the scenario's
            # registered defaults, so editing the catalog invalidates
            # stale records instead of silently resuming from them.
            # (The runner folds the run config in itself.)
            cell_params=scenario.cell_params(
                topo_overrides,
                workload_overrides,
                dynamics_overrides,
                fault_overrides,
            )
            if store is not None
            else None,
        )
    except (ReproError, ValueError) as error:
        # Overrides that pass type coercion can still violate a builder's
        # own range checks (e.g. mean_burst_size=0.5), which only fire
        # when the factory runs; report them on the same error path.
        print(f"error: {error}", file=sys.stderr)
        return 2
    columns = BASE_FAMILY.run_columns + tuple(
        column
        for family in RUN_ORDER
        if _carried(family, comparison.metrics.values())
        for column in family.run_columns
    )
    table = format_table(
        ["scheme"] + [column.header for column in columns],
        [
            [name]
            + [
                f"{column.scale * getattr(metrics, column.metric):{column.spec}}"
                for column in columns
            ]
            for name, metrics in comparison.metrics.items()
        ],
    )
    print(table)
    if store is not None:
        summary_path = store.directory / "comparison.md"
        summary_path.write_text(
            f"# {scenario.name}\n\nruns={args.runs} seed={args.seed}\n\n"
            f"```\n{table}\n```\n",
            encoding="utf-8",
        )
        expected = args.runs * len(comparison.metrics)
        print(_records_line(store, cells_before, expected))
    return 0


def _carried(family, averaged) -> bool:
    """Whether any of the averaged results carries ``family``."""
    return any(family.name in metrics.families for metrics in averaged)


def _filter_factories(factories: dict, names: list[str] | None) -> dict:
    """Restrict the scheme table to ``--scheme`` selections.

    Matching is a case-insensitive prefix (``--scheme flash``,
    ``--scheme speedy``); selection order follows the benchmark table,
    not the flag order, so store cells and output rows stay in the
    canonical order.  Per-scheme RNGs are salted by scheme name, so a
    filtered run produces byte-identical results (and store cells) for
    the schemes it does run.
    """
    if not names:
        return factories
    chosen: set[str] = set()
    for wanted in names:
        matches = [
            key
            for key in factories
            if key.lower().startswith(wanted.strip().lower())
        ]
        if not matches:
            known = ", ".join(factories)
            raise ValueError(f"unknown scheme {wanted!r} (known: {known})")
        if len(matches) > 1:
            raise ValueError(
                f"ambiguous scheme {wanted!r} (matches: {', '.join(matches)})"
            )
        chosen.add(matches[0])
    return {key: value for key, value in factories.items() if key in chosen}


def _records_line(store, cells_before: int, expected: int) -> str:
    """One status line making store reuse visible, never silent.

    ``expected`` is how many cells this invocation needed; the resumed
    count is derived from it, so unrelated pre-existing records (other
    parameters/scenarios in the same directory) are not misreported as
    reuse.
    """
    total = len(store)
    fresh = total - cells_before
    resumed = max(expected - fresh, 0)
    line = f"records: {store.records_path} ({total} cells, {fresh} new"
    if resumed:
        line += f", {resumed} resumed from previous records"
    return line + ")"


_SWEEP_ROLES = (
    "topology",
    "workload",
    "dynamics",
    "fee",
    "fault",
    "engine",
    "mpp",
)


def _cmd_sweep(args) -> int:
    import repro.scenarios as scenarios
    from repro.sim.runner import resolve_run_config, sweep as run_sweep
    from repro.sim import format_series

    try:
        scenario = _apply_fault_flag(
            scenarios.get_scenario(args.name), args.fault
        )
        fault_overrides = _parse_param_overrides(args.fault_param)
        role, separator, key = args.axis.partition(".")
        if not separator or role not in _SWEEP_ROLES or not key:
            raise scenarios.ScenarioError(
                f"expected --axis ROLE.KEY with ROLE one of "
                f"{', '.join(_SWEEP_ROLES)}, got {args.axis!r}"
            )
        values = [value for value in args.values.split(",") if value]
        if not values:
            raise scenarios.ScenarioError("--values needs at least one value")
        if role == "fee":
            # Sugar for the fee-market dynamics axes: `fee.KEY` sweeps a
            # dynamics parameter of a fee-market scenario, keeping sweep
            # invocations readable (fee.sensitivity, fee.initial_rate...).
            if scenario.dynamics != "fee-market":
                raise scenarios.ScenarioError(
                    "--axis fee.KEY needs the fee-market dynamics "
                    "ingredient (pick a fee-market scenario)"
                )
        if role == "fault":
            if scenario.faults is None:
                raise scenarios.ScenarioError(
                    "--axis fault.KEY needs a fault ingredient (pass "
                    "--fault NAME or pick an attack scenario)"
                )
            # Name the axis value the fault model's range check refuses.
            fault_entry = scenarios.FAULTS.get(scenario.faults)
            for value in values:
                bound = fault_entry.bind(
                    {**scenario.fault_params, **fault_overrides, key: value}
                )
                try:
                    fault_entry.builder(**bound)
                except ValueError as exc:
                    raise scenarios.ScenarioError(
                        f"bad fault axis value {value!r}: {exc}"
                    ) from exc
        engine_overrides = _engine_overrides(args)
        mpp_overrides = _mpp_overrides(args)
        base = resolve_run_config(
            args.name, args.engine, engine_overrides, mpp_overrides
        )
        if role == "engine" and base.concurrency is None:
            raise scenarios.ScenarioError(
                "--axis engine.KEY needs the concurrent engine (pass "
                "--engine concurrent or pick a concurrent scenario)"
            )
        if role == "mpp" and base.mpp is None:
            raise scenarios.ScenarioError(
                "--axis mpp.KEY needs multi-part payments on (pass "
                "--mpp or pick an MPP scenario)"
            )
        # One run config per value, resolved (and so validated) before
        # any run starts; only the engine and mpp axes vary it.
        configs = {
            value: resolve_run_config(
                args.name,
                args.engine,
                {**engine_overrides, key: value}
                if role == "engine"
                else engine_overrides,
                {**(mpp_overrides or {}), key: value}
                if role == "mpp"
                else mpp_overrides,
            )
            for value in values
        }

        def scenario_for(value):
            overrides = {
                "topology_overrides": {},
                "workload_overrides": {},
                "dynamics_overrides": {},
                "fault_overrides": dict(fault_overrides),
            }
            if role not in ("engine", "mpp"):
                # The fee axis is sugar for a fee-market dynamics override.
                section = "dynamics" if role == "fee" else role
                overrides[f"{section}_overrides"][key] = value
            if args.transactions is not None and not (
                role == "workload" and key == "transactions"
            ):
                overrides["workload_overrides"]["transactions"] = (
                    args.transactions
                )
            return scenario.factory(
                topology_overrides=overrides["topology_overrides"],
                workload_overrides=overrides["workload_overrides"],
                dynamics_overrides=overrides["dynamics_overrides"] or None,
                fault_overrides=overrides["fault_overrides"] or None,
            )

        # Every value's factory binds (and so validates) the axis key
        # and value before any run starts.
        factories = {value: scenario_for(value) for value in values}
    except (scenarios.ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    store = None
    cells_before = 0
    if args.out:
        from repro.eval.store import ExperimentStore

        store = ExperimentStore(args.out)
        store.merge_shards()
        cells_before = len(store)
        if store.records_path.exists() and not args.resume:
            print(
                f"error: {store.records_path} already holds records; pass "
                "--resume to continue the sweep or choose a fresh --out",
                file=sys.stderr,
            )
            return 2
    elif args.resume:
        print("error: --resume requires --out DIR", file=sys.stderr)
        return 2

    print(
        f"sweep scenario={scenario.name} axis={args.axis} "
        f"values={','.join(values)} runs={args.runs} seed={args.seed}"
        + (" engine=concurrent" if base.concurrency is not None else "")
        + (" mpp=on" if base.mpp is not None else "")
    )
    cell_params = {
        "axis": args.axis,
        "base": scenario.cell_params(fault_overrides=fault_overrides),
    }
    if args.transactions is not None:
        cell_params["transactions"] = args.transactions
    try:
        series = run_sweep(
            values,
            factories.__getitem__,
            paper_benchmark_factories(),
            runs=args.runs,
            base_seed=args.seed,
            workers=args.workers,
            store=store,
            experiment=scenario.name,
            cell_params=cell_params,
            config_for=configs.__getitem__,
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    averaged = [m for per_value in series.values() for m in per_value]
    blocks = [
        format_series(
            args.axis,
            values,
            {
                name: [block.scale * getattr(m, block.metric) for m in metrics]
                for name, metrics in series.items()
            },
            block.label,
        )
        for block in BASE_FAMILY.sweep_blocks
        + tuple(
            block
            for family in SWEEP_ORDER
            if _carried(family, averaged)
            for block in family.sweep_blocks
        )
    ]
    output = "\n\n".join(blocks)
    print(output)
    if store is not None:
        sweep_path = store.directory / "sweep.md"
        sweep_path.write_text(
            f"# {scenario.name} — sweep {args.axis}\n\n"
            f"values: {', '.join(values)} · runs={args.runs} "
            f"seed={args.seed}\n\n```\n{output}\n```\n",
            encoding="utf-8",
        )
        expected = len(values) * args.runs * len(series)
        print(_records_line(store, cells_before, expected))
    return 0


def _cmd_report(args) -> int:
    from repro.eval.report import check_golden, generate_report

    try:
        artifacts = generate_report(
            out_dir=args.out,
            smoke=args.smoke,
            runs=args.runs,
            transactions=args.transactions,
            seed=args.seed,
            workers=args.workers,
            fresh=args.fresh,
            progress=print,
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.check_golden:
        problems = check_golden(
            artifacts.out_dir / "tables", args.check_golden
        )
        if problems:
            for problem in problems:
                print(f"golden drift: {problem}", file=sys.stderr)
            return 1
        print(f"golden tables match ({args.check_golden})")
    return 0


def _add_seed_flag(subparser: argparse.ArgumentParser) -> None:
    """A per-subcommand ``--seed`` that overrides the global one.

    ``SUPPRESS`` keeps the subparser from clobbering the root parser's
    already-parsed value when the flag is absent (an argparse gotcha:
    subparser defaults overwrite parent results).
    """
    subparser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="base RNG seed (overrides the global --seed)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser.

    Every subcommand carries ``help`` (one line for ``repro --help``) and
    ``description`` (shown by ``repro <cmd> --help``); the scenario
    subcommands pull both from the registry metadata so the CLI always
    matches the catalog.
    """
    import repro.scenarios as scenarios

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flash (CoNEXT 2019) reproduction experiments",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base RNG seed (default 0)"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser(
        "analyze",
        help="the §2.2 measurement study (Figs 3 & 4)",
        description="Regenerate the trace measurement study: payment-size "
        "CDFs (Fig 3) and the transaction recurrence analysis (Fig 4).",
    )
    analyze.add_argument(
        "--samples", type=int, default=40_000, help="CDF sample count"
    )
    analyze.add_argument(
        "--days", type=int, default=60, help="trace days for the recurrence study"
    )
    analyze.set_defaults(func=_cmd_analyze)

    testbed = subparsers.add_parser(
        "testbed",
        help="the §5 protocol testbed comparison",
        description="Run the message-level 2PC/AMP protocol testbed on a "
        "Watts-Strogatz network (Figs 12/13).",
    )
    testbed.add_argument("--nodes", type=int, default=50, help="node count")
    testbed.add_argument(
        "--transactions", type=int, default=1_000, help="workload size"
    )
    testbed.add_argument(
        "--capacity-low", type=float, default=1_000.0, help="capacity interval low"
    )
    testbed.add_argument(
        "--capacity-high", type=float, default=1_500.0, help="capacity interval high"
    )
    testbed.set_defaults(func=_cmd_testbed)

    figure = subparsers.add_parser(
        "figure",
        help="regenerate one paper figure or ablation",
        description="Regenerate one figure: fig3, fig4, fig6-fig13, "
        "ablation-k, ablation-order, or ablation-paths.",
    )
    figure.add_argument("name", help="figure name (e.g. fig6, ablation-k)")
    figure.add_argument(
        "--topology",
        choices=("ripple", "lightning"),
        default="ripple",
        help="run on the ripple-default or lightning-default scenario",
    )
    figure.add_argument(
        "--transactions", type=int, default=None, help="workload size"
    )
    figure.add_argument(
        "--runs", type=int, default=2, help="seeded replications to average"
    )
    figure.add_argument(
        "--paper-scale",
        action="store_true",
        help="full-size topologies and 2,000 payments (slow)",
    )
    figure.set_defaults(func=_cmd_figure)

    list_scenarios = subparsers.add_parser(
        "list-scenarios",
        help=f"list the {len(scenarios.SCENARIOS)} registered scenarios",
        description="Print the scenario catalog: name, ingredient "
        "composition, the paper figure each reproduces, and (with "
        "--verbose) every overridable parameter.",
    )
    list_scenarios.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="also list each scenario's parameters and defaults",
    )
    list_scenarios.set_defaults(func=_cmd_list_scenarios)

    run = subparsers.add_parser(
        "run",
        help="run one registered scenario end to end",
        description="Compare the four paper schemes on a registered "
        "scenario. Scenarios: " + ", ".join(scenarios.scenario_names()) + ".",
    )
    run.add_argument("name", help="a scenario name from list-scenarios")
    run.add_argument(
        "--runs", type=int, default=2, help="seeded replications to average"
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallelize the seeded runs over up to N fork workers, "
        "one per usable CPU at most",
    )
    run.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="shorthand for --workload-param transactions=N",
    )
    run.add_argument(
        "--topo-param",
        action="append",
        metavar="KEY=VALUE",
        help="override a topology parameter (repeatable)",
    )
    run.add_argument(
        "--workload-param",
        action="append",
        metavar="KEY=VALUE",
        help="override a workload parameter (repeatable)",
    )
    run.add_argument(
        "--dynamics-param",
        action="append",
        metavar="KEY=VALUE",
        help="override a dynamics parameter (repeatable)",
    )
    run.add_argument(
        "--scheme",
        action="append",
        metavar="NAME",
        help="restrict the comparison to this scheme (repeatable; "
        "case-insensitive prefix of Flash, Spider, SpeedyMurmurs, "
        "Shortest Path) — e.g. trace-scale streaming runs on the "
        "cheap routers only",
    )
    _add_fault_flags(run)
    _add_engine_flags(run)
    _add_mpp_flags(run)
    _add_seed_flag(run)
    run.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="persist per-run records (records.jsonl) and the comparison "
        "table under DIR",
    )
    run.set_defaults(func=_cmd_run)

    sweep = subparsers.add_parser(
        "sweep",
        help="sweep one scenario parameter across several values",
        description="Run a registered scenario once per value of one "
        "parameter (--axis ROLE.KEY, ROLE one of topology/workload/"
        "dynamics/fee/fault/engine; list-scenarios --verbose shows every KEY, "
        "docs/CONCURRENCY.md the engine KEYs, docs/RESILIENCE.md the "
        "fault KEYs) and print "
        "one series table per headline metric. With --out DIR every "
        "completed (scheme, seed) cell is persisted to DIR/records.jsonl; "
        "--resume continues an interrupted sweep without recomputing "
        "completed cells. Scenarios: "
        + ", ".join(scenarios.scenario_names())
        + ".",
    )
    sweep.add_argument("name", help="a scenario name from list-scenarios")
    sweep.add_argument(
        "--axis",
        required=True,
        metavar="ROLE.KEY",
        help="the swept parameter, e.g. topology.capacity_median or "
        "engine.load",
    )
    sweep.add_argument(
        "--values",
        required=True,
        metavar="V1,V2,...",
        help="comma-separated values for the swept parameter",
    )
    sweep.add_argument(
        "--runs", type=int, default=2, help="seeded replications per value"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallelize the seeded runs over up to N fork workers, "
        "one per usable CPU at most",
    )
    sweep.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="shorthand for --workload-param transactions=N",
    )
    _add_fault_flags(sweep)
    _add_engine_flags(sweep)
    _add_mpp_flags(sweep)
    _add_seed_flag(sweep)
    sweep.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="persist per-cell records under DIR (enables --resume)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep from DIR/records.jsonl "
        "(completed cells are not recomputed)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    report = subparsers.add_parser(
        "report",
        help="generate the paper's headline comparison report",
        description="Run the headline experiment matrix (Flash vs the "
        "four baselines on every scenario whose eval matrix opts in) and "
        "write markdown tables, figures, summary.json, and REPORT.md "
        "under --out. Re-running resumes from DIR/records.jsonl; "
        "--smoke runs the reduced deterministic subset that CI "
        "golden-checks; --check-golden compares the generated tables "
        "against a committed golden directory and exits 1 on drift. "
        "Methodology: docs/RESULTS.md.",
    )
    report.add_argument(
        "--out",
        metavar="DIR",
        default="results",
        help="output directory (default: results/)",
    )
    report.add_argument(
        "--smoke",
        action="store_true",
        help="reduced deterministic matrix for CI drift checks",
    )
    report.add_argument(
        "--runs",
        type=int,
        default=None,
        help="override every scenario's seeded replication count",
    )
    report.add_argument(
        "--transactions",
        type=int,
        default=None,
        help="override every scenario's workload size",
    )
    report.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallelize the seeded runs over up to N fork workers, "
        "one per usable CPU at most",
    )
    _add_seed_flag(report)
    report.add_argument(
        "--fresh",
        action="store_true",
        help="clear DIR/records.jsonl first instead of resuming",
    )
    report.add_argument(
        "--check-golden",
        metavar="DIR",
        default=None,
        help="compare generated tables against golden DIR; exit 1 on drift",
    )
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    raise SystemExit(main())
