"""Multi-run experiment orchestration: seeds, sweeps, averaging.

The paper reports the average of 5 independent runs (§4.1).  A *scenario*
here is a callable building (graph, workload) from a seed; the runner
replays every scheme on identical scenarios and averages the metrics.

Every comparison runs under one :class:`RunConfig`, which
:func:`resolve_run_config` builds from a registered scenario's defaults
and the caller's knobs: the sequential engine
(:func:`repro.sim.engine.run_simulation`; scenarios with churn events, a
fault plan or a fee controller enter it through its event-first delegate
:func:`repro.network.dynamics.run_dynamic_simulation`) or the concurrent
one (:mod:`repro.sim.concurrent` — discrete-event in-flight holds with
latency/timeout metrics), with or without multi-part payments
(:mod:`repro.sim.mpp`).  The config also keys the store cells (see
:func:`cell_digest`): sequential, MPP-free cells add nothing to their
key, so stores written before either feature existed still resume.

Runs are independent by construction (each derives its RNGs from
``base_seed`` and its run index alone), so ``run_comparison`` and
``sweep`` accept an opt-in ``workers=N`` to fan the seeded runs out over
``multiprocessing`` fork workers.  Scenario factories and router
factories are typically closures, which do not pickle — the fork start
method sidesteps that by inheriting them through process memory, and the
per-run results (plain dataclasses of floats) pickle back.  Result order
is by run index regardless of completion order, so parallel metrics are
identical to serial ones.  The pool never has more processes than the
CPUs this process may run on; when that leaves one, the runs go serial.

Passing ``store=`` (an :class:`repro.eval.store.ExperimentStore`) makes
both entry points **write-through and resumable**: every completed
(scheme, run) cell is appended to the store as it finishes, and a
re-invocation with the same store skips every cell that is already
recorded — an interrupted sweep picks up where it died, and the merged
aggregates are float-identical to a clean serial run.  Parallel workers
append to per-process shard files that are merged (and deduplicated)
when the pool drains, so a killed pool still keeps its completed runs.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import zlib
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.network.dynamics import ChannelEvent, run_dynamic_simulation
from repro.network.graph import ChannelGraph
from repro.sim import concurrent
from repro.sim.concurrent import ConcurrencyConfig
from repro.sim.engine import RouterFactory, run_simulation
from repro.sim.metrics import AveragedMetrics, SimulationResult
from repro.sim.mpp import MppConfig
from repro.traces.workload import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (eval -> sim)
    from repro.eval.store import ExperimentStore

#: What one seeded build yields: ``(graph, workload)``, or
#: ``(graph, workload, events)`` when the scenario includes topology
#: dynamics (the runner then interleaves churn events by timestamp via
#: :func:`repro.network.dynamics.run_dynamic_simulation`), or
#: ``(graph, workload, events, fault_plan)`` when it also carries a
#: compiled :class:`repro.sim.faults.FaultPlan` — the runner then
#: injects the adversarial events and attaches resilience metrics.
ScenarioBuild = (
    tuple[ChannelGraph, Workload]
    | tuple[ChannelGraph, Workload, list[ChannelEvent]]
    | tuple[ChannelGraph, Workload, list[ChannelEvent], object]
)

#: Builds the inputs for one seeded run.
ScenarioFactory = Callable[[random.Random], ScenarioBuild]

DEFAULT_RUNS = 5

#: The default reference mice fraction (paper: "90% of payments are
#: mice"); part of every store cell's parameter hash.
DEFAULT_MICE_FRACTION = 0.9


#: The engines :func:`run_comparison` accepts.
ENGINES: tuple[str, ...] = ("sequential", "concurrent")


@dataclass(frozen=True)
class RunConfig:
    """The validated knob sets one comparison runs with.

    ``concurrency`` is ``None`` for the sequential engine and the
    concurrent engine's knobs otherwise; ``mpp`` is ``None`` without
    multi-part payments.  Build one with :func:`resolve_run_config`.
    """

    concurrency: ConcurrencyConfig | None = None
    mpp: MppConfig | None = None

    def digest_params(self) -> dict[str, object]:
        """What this config adds to a store cell's parameters.

        A concurrent cell adds the engine name and its fully resolved
        knobs (an omitted knob and its explicit default hash the same),
        an MPP cell its resolved MPP knobs; a sequential, MPP-free cell
        adds nothing.  So stores written before either feature existed
        still resume.
        """
        params: dict[str, object] = {}
        if self.concurrency is not None:
            params["engine"] = "concurrent"
            params["engine_params"] = self.concurrency.to_params()
        if self.mpp is not None:
            params["mpp"] = self.mpp.to_params()
        return params


def resolve_run_config(
    scenario: "ScenarioFactory | str | None" = None,
    engine: str | None = None,
    engine_params: Mapping[str, object] | None = None,
    mpp_params: Mapping[str, object] | None = None,
) -> RunConfig:
    """Layer and validate the engine and MPP knobs of one comparison.

    Every entry point that takes these knobs (the runner, the CLI, the
    report, scenario registration) resolves them here.  A registered
    scenario name supplies defaults: ``engine=None`` takes
    its engine, its ``engine_params`` sit under the passed ones, and its
    ``mpp_params`` under the passed MPP knobs (``mpp_params=None`` keeps
    its MPP setting as registered).  Factory callables and ``None`` have
    no defaults: sequential, MPP off.  Any MPP mapping, even ``{}``,
    turns MPP on.  Unknown engines, unknown or out-of-range knobs, and
    engine knobs on the sequential engine, which would be silently
    ignored, raise :class:`ValueError`.
    """
    registered = None
    if isinstance(scenario, str):
        from repro.scenarios import get_scenario

        registered = get_scenario(scenario)
    if engine is None:
        engine = registered.engine if registered else "sequential"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})"
        )
    if engine == "sequential" and engine_params:
        raise ValueError(
            "engine parameters "
            f"{sorted(engine_params)} have no effect with "
            "engine='sequential'; pass engine='concurrent' to use them"
        )
    concurrency = None
    if engine == "concurrent":
        # A sequential scenario registers no engine knobs, so its
        # (empty) ones can be layered whichever engine the caller picks.
        defaults = registered.engine_params if registered else {}
        concurrency = ConcurrencyConfig.from_params(
            {**defaults, **(engine_params or {})}
        )
    if registered is not None and registered.mpp_params is not None:
        mpp_params = {**registered.mpp_params, **(mpp_params or {})}
    mpp = None if mpp_params is None else MppConfig.from_params(mpp_params)
    return RunConfig(concurrency, mpp)


def cell_digest(
    cell_params: Mapping[str, object] | None,
    reference_mice_fraction: float = DEFAULT_MICE_FRACTION,
    config: RunConfig = RunConfig(),
) -> tuple[dict[str, object], str]:
    """The ``(params, hash)`` a comparison's store cells are keyed by.

    Single source of truth for the hash recipe: the runner keys its
    records through this, and readers (e.g. the report generator) must
    call it too rather than re-deriving the mapping — a recipe mismatch
    would silently select zero records.  ``config`` adds its
    :meth:`RunConfig.digest_params`.
    """
    from repro.eval.store import params_hash

    params = dict(cell_params or {})
    params["reference_mice_fraction"] = reference_mice_fraction
    params.update(config.digest_params())
    return params, params_hash(params)


def resolve_scenario(scenario: ScenarioFactory | str) -> ScenarioFactory:
    """Accept a factory callable or a registered scenario name.

    Strings are looked up in the :mod:`repro.scenarios` catalog (imported
    lazily so the runner stays usable without the registry); callables
    pass through unchanged.  Every runner entry point calls this, so
    ``run_comparison("ripple-default", ...)`` just works.
    """
    if isinstance(scenario, str):
        from repro.scenarios import get_scenario

        return get_scenario(scenario).factory()
    return scenario


@dataclass(frozen=True)
class ComparisonResult:
    """Averaged metrics for every scheme on a common scenario."""

    metrics: dict[str, AveragedMetrics]

    def __getitem__(self, scheme: str) -> AveragedMetrics:
        return self.metrics[scheme]

    def schemes(self) -> list[str]:
        """Scheme names in registration (table-row) order."""
        return list(self.metrics)


def _single_run(
    scenario: ScenarioFactory,
    factories: dict[str, RouterFactory],
    base_seed: int,
    reference_mice_fraction: float,
    run_index: int,
    config: RunConfig = RunConfig(),
    skip: set[str] | None = None,
    on_result: Callable[[str, SimulationResult], None] | None = None,
) -> dict[str, SimulationResult]:
    """One seeded replication: every scheme on the same graph/workload.

    Scenario factories may return ``(graph, workload)``,
    ``(graph, workload, events)``, or ``(graph, workload, events,
    fault_plan)``; with events present each scheme runs through
    :func:`~repro.network.dynamics.run_dynamic_simulation` (churn
    interleaved by timestamp, same event stream for every scheme), and
    a fault plan additionally injects its adversarial events and
    attaches resilience metrics.  A concurrent ``config`` routes every
    scheme through
    :func:`repro.sim.concurrent.run_concurrent_simulation` instead
    (which handles events and faults natively); seeds are derived the
    same way for both engines.

    ``skip`` names schemes to leave out (they are already stored —
    safe because every scheme derives its RNG independently and gets
    its own graph copy, so skipping one cannot perturb another).
    ``on_result`` fires after each scheme completes — the write-through
    checkpoint hook, so a kill mid-run loses at most the scheme in
    flight rather than the whole run.
    """
    scenario_rng = random.Random(base_seed + 1_000_003 * run_index)
    built = scenario(scenario_rng)
    faults = None
    if len(built) == 4:
        graph, workload, events, faults = built
    elif len(built) == 3:
        graph, workload, events = built
    else:
        graph, workload = built
        events = None
    results: dict[str, SimulationResult] = {}
    for name, factory in factories.items():
        if skip and name in skip:
            continue
        name_salt = zlib.crc32(name.encode("utf-8")) % 7_919
        router_rng = random.Random(base_seed + 7_919 * run_index + name_salt)
        if config.concurrency is not None:
            results[name] = concurrent.run_concurrent_simulation(
                graph,
                factory,
                workload,
                rng=router_rng,
                config=config.concurrency,
                events=events,
                reference_mice_fraction=reference_mice_fraction,
                faults=faults,
                mpp=config.mpp,
            )
        elif (
            events
            or faults is not None
            or getattr(graph, "fee_controller", None) is not None
        ):
            # A fee-market scenario's dynamics builder emits no churn
            # events — its "dynamics" is the controller attached to the
            # graph, ticked by the engine's gossip schedule.
            results[name] = run_dynamic_simulation(
                graph,
                factory,
                workload,
                events or [],
                rng=router_rng,
                reference_mice_fraction=reference_mice_fraction,
                faults=faults,
                mpp=config.mpp,
            )
        else:
            results[name] = run_simulation(
                graph,
                factory,
                workload,
                rng=router_rng,
                reference_mice_fraction=reference_mice_fraction,
                mpp=config.mpp,
            )
        if on_result is not None:
            on_result(name, results[name])
    return results


def _run_records(
    experiment: str,
    base_seed: int,
    run_index: int,
    digest: str,
    params: Mapping[str, object],
    results: Mapping[str, SimulationResult],
) -> list[dict]:
    """Store records for every scheme of one completed run."""
    from repro.eval.store import make_record

    return [
        make_record(
            experiment,
            name,
            base_seed,
            run_index,
            params,
            result.to_record(),
            digest=digest,
            router=result.scheme,
        )
        for name, result in results.items()
    ]


# Fork workers read their arguments from this module-level slot instead of
# pickled task payloads: scenario/router factories are closures, which the
# fork start method inherits for free but pickle rejects.  The lock covers
# the set-then-fork window so concurrent run_comparison calls from
# different threads cannot hand each other's state to their workers; once
# the pool's processes exist the slot no longer matters to them.
_FORK_STATE: tuple | None = None
_FORK_LOCK = threading.Lock()


def _forked_run(run_index: int) -> dict[str, SimulationResult]:
    assert _FORK_STATE is not None, "worker forked without runner state"
    (
        scenario,
        factories,
        base_seed,
        reference_mice_fraction,
        config,
        store_directory,
        experiment,
        digest,
        params,
    ) = _FORK_STATE
    results = _single_run(
        scenario, factories, base_seed, reference_mice_fraction, run_index, config
    )
    if store_directory is not None:
        # Persist into a per-process shard before returning: if a later
        # task (or the parent) dies, this run survives on disk and a
        # resumed sweep will not recompute it.
        from repro.eval.store import ExperimentStore

        shard_store = ExperimentStore(store_directory)
        for record in _run_records(
            experiment, base_seed, run_index, digest, params, results
        ):
            shard_store.shard_append(os.getpid(), record)
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_parallel(
    scenario: ScenarioFactory,
    factories: dict[str, RouterFactory],
    run_indices: Sequence[int],
    base_seed: int,
    reference_mice_fraction: float,
    config: RunConfig,
    processes: int,
    store: "ExperimentStore | None" = None,
    experiment: str | None = None,
    digest: str | None = None,
    params: Mapping[str, object] | None = None,
) -> list[dict[str, SimulationResult]] | None:
    """Fan runs out over fork workers; ``None`` if fork is unavailable."""
    global _FORK_STATE
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None
    store_directory = str(store.directory) if store is not None else None
    try:
        with _FORK_LOCK:
            _FORK_STATE = (
                scenario,
                factories,
                base_seed,
                reference_mice_fraction,
                config,
                store_directory,
                experiment,
                digest,
                params,
            )
            try:
                pool = context.Pool(processes=processes)
            finally:
                _FORK_STATE = None
        with pool:
            return pool.map(_forked_run, run_indices, chunksize=1)
    finally:
        # Merge shards written by completed workers into durable records,
        # even when a task raised, pool creation failed, or the pool was
        # interrupted.
        if store is not None:
            store.merge_shards()


def run_comparison(
    scenario: ScenarioFactory | str,
    factories: dict[str, RouterFactory],
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    reference_mice_fraction: float = DEFAULT_MICE_FRACTION,
    workers: int | None = None,
    store: "ExperimentStore | None" = None,
    experiment: str | None = None,
    cell_params: Mapping[str, object] | None = None,
    engine: str | None = None,
    engine_params: Mapping[str, object] | None = None,
    mpp_params: Mapping[str, object] | None = None,
) -> ComparisonResult:
    """Average each scheme over ``runs`` seeded replications.

    ``scenario`` is a factory callable or a registered scenario name
    (see :func:`resolve_scenario`); a name also keys the store records
    when ``experiment`` is not given.  ``engine``, ``engine_params`` and
    ``mpp_params`` go through :func:`resolve_run_config`, so a
    registered scenario's own engine and MPP knobs apply unless
    overridden.  Everything else is :func:`compare_schemes`.
    """
    if experiment is None and isinstance(scenario, str):
        experiment = scenario
    config = resolve_run_config(scenario, engine, engine_params, mpp_params)
    return compare_schemes(
        resolve_scenario(scenario),
        factories,
        config,
        runs=runs,
        base_seed=base_seed,
        reference_mice_fraction=reference_mice_fraction,
        workers=workers,
        store=store,
        experiment=experiment,
        cell_params=cell_params,
    )


def compare_schemes(
    scenario: ScenarioFactory,
    factories: dict[str, RouterFactory],
    config: RunConfig,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    reference_mice_fraction: float = DEFAULT_MICE_FRACTION,
    workers: int | None = None,
    store: "ExperimentStore | None" = None,
    experiment: str | None = None,
    cell_params: Mapping[str, object] | None = None,
) -> ComparisonResult:
    """Average each scheme over ``runs`` seeded replications under ``config``.

    Every scheme within a run sees the *same* graph copy and workload,
    so differences are attributable to routing alone.  ``workers=N``
    (N > 1) executes the seeded runs in up to N parallel processes, no
    more than there are pending runs or usable CPUs (one left means the
    serial path); seeds, result order, and therefore every averaged
    metric are identical to the serial path.

    ``store`` persists every (scheme, run) cell as it completes and
    **skips cells the store already holds**, making re-invocations
    resumable.  Cells are keyed by ``experiment`` (required with a
    store), the scheme name, ``base_seed``, the run index, and a hash of
    ``cell_params`` and ``config`` (see :func:`cell_digest`); include in
    ``cell_params`` anything else that changes the scenario's behaviour
    (overrides, swept values) so different configurations never collide.
    """
    if runs <= 0:
        raise ValueError(f"runs must be positive, got {runs}")
    if workers is not None and workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if store is not None and experiment is None:
        raise ValueError(
            "run_comparison(store=...) needs experiment= to key the "
            "records when the scenario is a callable"
        )

    digest = ""
    params: dict[str, object] = {}
    stored: dict[str, dict] = {}
    if store is not None:
        from repro.eval.store import cell_id

        params, digest = cell_digest(
            cell_params, reference_mice_fraction, config
        )
        # Fold in shards orphaned by a killed parent (the pool's own
        # merge in `finally` never ran), so those completed runs count
        # as done instead of being recomputed.
        store.merge_shards()
        stored = store.load()

        def _cell(name: str, run_index: int) -> str:
            return cell_id(experiment, name, base_seed, run_index, digest)

        pending = [
            index
            for index in range(runs)
            if any(_cell(name, index) not in stored for name in factories)
        ]
    else:
        pending = list(range(runs))

    fresh: dict[int, dict[str, SimulationResult]] = {}
    if pending:
        parallel_results = None
        processes = 1
        if workers is not None and workers > 1:
            processes = min(workers, len(pending), _usable_cpus())
        if processes > 1:
            parallel_results = _run_parallel(
                scenario,
                factories,
                pending,
                base_seed,
                reference_mice_fraction,
                config,
                processes,
                store=store,
                experiment=experiment,
                digest=digest,
                params=params,
            )
        if parallel_results is not None:
            fresh = dict(zip(pending, parallel_results))
        else:
            for run_index in pending:
                # Scheme-granular resume: skip schemes already stored for
                # this run and checkpoint each fresh scheme the moment it
                # finishes, so a kill mid-run loses only the scheme in
                # flight.  Safe because every scheme derives its RNG
                # independently and simulates its own graph copy.
                done = (
                    {
                        name
                        for name in factories
                        if _cell(name, run_index) in stored
                    }
                    if store is not None
                    else set()
                )

                def _checkpoint(
                    name: str,
                    result: SimulationResult,
                    run_index: int = run_index,
                ) -> None:
                    if store is None:
                        return
                    for record in _run_records(
                        experiment,
                        base_seed,
                        run_index,
                        digest,
                        params,
                        {name: result},
                    ):
                        if record["cell"] not in stored:
                            store.append(record)
                            stored[record["cell"]] = record

                fresh[run_index] = _single_run(
                    scenario,
                    factories,
                    base_seed,
                    reference_mice_fraction,
                    run_index,
                    config,
                    skip=done,
                    on_result=_checkpoint,
                )

    per_scheme: dict[str, list] = {name: [] for name in factories}
    for run_index in range(runs):
        for name in factories:
            result = fresh.get(run_index, {}).get(name)
            if result is not None:
                per_scheme[name].append(result)
            else:
                record = stored[_cell(name, run_index)]
                per_scheme[name].append(
                    SimulationResult.from_record(
                        record.get("router", name), record["metrics"]
                    )
                )
    return ComparisonResult(
        metrics={
            name: AveragedMetrics.of(results)
            for name, results in per_scheme.items()
        }
    )


def sweep(
    values: Sequence,
    scenario_for: Callable[[object], ScenarioFactory | str],
    factories: dict[str, RouterFactory],
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    workers: int | None = None,
    store: "ExperimentStore | None" = None,
    experiment: str | None = None,
    cell_params: Mapping[str, object] | None = None,
    config_for: Callable[[object], RunConfig] | None = None,
) -> dict[str, list[AveragedMetrics]]:
    """Run a parameter sweep: one comparison per value.

    Returns ``{scheme: [AveragedMetrics per swept value]}`` — exactly the
    series shape of the paper's line plots (Figs 6, 7, 10, 11).
    ``scenario_for`` may return a factory callable *or* a registered
    scenario name per value; ``workers`` is forwarded to every
    comparison.  ``config_for`` maps each swept value to its
    :class:`RunConfig`, which makes the engine and MPP knobs sweepable
    (the ``engine.*`` and ``mpp.*`` axes); without it each value runs
    with :func:`resolve_run_config` of its scenario.

    With ``store`` the sweep is **resumable**: each swept value's cells
    carry the value inside their parameter hash, so re-invoking an
    interrupted sweep over the same store recomputes only the missing
    cells and reproduces the completed ones float-exactly from disk.
    ``experiment`` keys the records (required when ``scenario_for``
    returns callables rather than registered names).
    """
    series: dict[str, list[AveragedMetrics]] = {name: [] for name in factories}
    for value in values:
        scenario = scenario_for(value)
        label = experiment
        if label is None and isinstance(scenario, str):
            label = scenario
        value_params: dict[str, object] | None = None
        if store is not None:
            value_params = {**dict(cell_params or {}), "sweep_value": value}
        comparison = compare_schemes(
            resolve_scenario(scenario),
            factories,
            config_for(value)
            if config_for is not None
            else resolve_run_config(scenario),
            runs=runs,
            base_seed=base_seed,
            workers=workers,
            store=store,
            experiment=label,
            cell_params=value_params,
        )
        for name in factories:
            series[name].append(comparison[name])
    return series
