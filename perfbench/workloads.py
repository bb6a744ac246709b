"""The benchmark's workloads and one measured replication of each.

A workload is a registered scenario, the schemes compared on it, and the
payment count of one replication.  A run of a workload measures several
replications, each on its own inputs: replication ``i`` of seed ``s``
builds the scenario from ``random.Random(s * 1000 + i)`` and hands the
prebuilt inputs to :func:`repro.sim.runner.run_comparison` for one seeded
run, so building stays outside the timed window.  Every replication draws
a fresh network and payment trace; pooling several of them is what keeps
a run's figures steady from one seed to the next.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from perfbench.tracer import instrument

perf = time.perf_counter


@dataclass(frozen=True)
class Spec:
    """One benchmark workload."""

    name: str
    scenario: str
    schemes: tuple[str, ...]
    #: Payments routed by every scheme in one replication.
    payments: int
    #: Replications measured by a run of ``REFERENCE_SECONDS``.
    replications: int
    #: Replications a ``--trace 1`` run measures twice: untraced, traced.
    traced: int


ALL_SCHEMES = ("Flash", "Spider", "SpeedyMurmurs", "Shortest Path")

#: The ``--seconds`` the replication counts below were sized for: about
#: that much wall time on a 2-core 2.1 GHz Xeon VM, including the stretches
#: where the host slows it down.  Other values scale the counts.
REFERENCE_SECONDS = 20

#: Why each workload exists is in ``BENCHMARK.json`` and METHODOLOGY.md;
#: the sizes keep a run near ``REFERENCE_SECONDS`` while pooling enough
#: replications to stay steady across seeds.
SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "depletion",
            "ripple-default",
            ALL_SCHEMES,
            payments=500,
            replications=26,
            traced=6,
        ),
        Spec(
            "churn",
            "scale-churn",
            ALL_SCHEMES,
            payments=30,
            replications=9,
            traced=2,
        ),
        Spec(
            "fees",
            "ripple-fees",
            ALL_SCHEMES,
            payments=500,
            replications=9,
            traced=2,
        ),
        Spec(
            "stream",
            "lightning-day",
            ("Shortest Path", "Spider"),
            payments=10_000,
            replications=6,
            traced=1,
        ),
    )
}


def replication_count(spec: Spec, seconds: float, traced: bool = False) -> int:
    """Replications a run of ``seconds`` measures (at least one)."""
    count = spec.traced if traced else spec.replications
    return max(1, round(count * seconds / REFERENCE_SECONDS))


def sub_seed(seed: int, index: int) -> int:
    """Seed of replication ``index`` of a run seeded with ``seed``."""
    return seed * 1000 + index


def factories(spec: Spec) -> dict:
    """The workload's router factories, keyed by scheme display name."""
    from repro.sim.factories import paper_benchmark_factories

    available = paper_benchmark_factories()
    return {name: available[name] for name in spec.schemes}


def build(spec: Spec, seed: int, payments: int | None = None):
    """The scenario's inputs for one replication (graph, workload, ...)."""
    from repro.scenarios import get_scenario

    scenario = get_scenario(spec.scenario)
    overrides = {"transactions": payments or spec.payments}
    return scenario.factory(workload_overrides=overrides)(random.Random(seed))


def build_timed(spec: Spec, seed: int, payments: int | None = None):
    """:func:`build` plus its ``(start, end)`` on the ``perf_counter`` clock."""
    start = perf()
    built = build(spec, seed, payments)
    return built, (start, perf())


def payments_fed(built) -> int:
    """Number of payments the built workload feeds each scheme."""
    workload = built[1]
    length = getattr(workload, "length", None)
    return length if length is not None else len(workload)


@contextmanager
def captured_results() -> Iterator[list]:
    """Collect the per-scheme results the runner's engines return."""
    from repro.sim import concurrent, runner

    results: list = []
    patches = [
        (runner, "run_simulation"),
        (runner, "run_dynamic_simulation"),
        (concurrent, "run_concurrent_simulation"),
    ]
    originals = [getattr(owner, attr) for owner, attr in patches]
    for (owner, attr), original in zip(patches, originals):

        def capture(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            results.append(result)
            return result

        setattr(owner, attr, capture)
    try:
        yield results
    finally:
        for (owner, attr), original in zip(patches, originals):
            setattr(owner, attr, original)


def simulate(spec: Spec, built, seed: int, schemes: dict) -> None:
    """One seeded replication of every scheme, as the timed window."""
    from repro.scenarios import get_scenario
    from repro.sim import runner

    scenario = get_scenario(spec.scenario)
    engine_params = (
        dict(scenario.engine_params) if scenario.engine == "concurrent" else None
    )
    runner.run_comparison(
        lambda rng: built,
        schemes,
        runs=1,
        base_seed=seed,
        engine=scenario.engine,
        engine_params=engine_params,
    )


def record_hash(result) -> str:
    """SHA-256 of a scheme result's ``to_record()``."""
    text = json.dumps(result.to_record(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Replication:
    """What one measured replication produced."""

    seed: int
    payments: int
    #: ``perf_counter`` at the start of the timed window, and its length.
    started: float = 0.0
    wall: float = 0.0
    results: list = field(default_factory=list)
    #: Output-check failures; any of them fails the replication's payments.
    issues: list = field(default_factory=list)

    def problems(self, spec: Spec) -> list[str]:
        """Output-check failures: missing schemes or uncovered payments."""
        found = [result.scheme for result in self.results]
        problems = []
        if sorted(found) != sorted(spec.schemes):
            problems.append(f"seed {self.seed}: schemes {found} != {list(spec.schemes)}")
        for result in self.results:
            if result.transactions != self.payments:
                problems.append(
                    f"seed {self.seed}: {result.scheme} covered "
                    f"{result.transactions} of {self.payments} payments"
                )
        return problems

    def hashes(self) -> dict[str, str]:
        return {result.scheme: record_hash(result) for result in self.results}


def measure(spec: Spec, built, seed: int, schemes: dict, tracer=None) -> Replication:
    """Time one replication and keep its per-scheme results.

    With a ``tracer`` its patches are installed just before the timed
    window and removed right after it.  An exception from the program is
    kept on the replication instead of propagating.
    """
    replication = Replication(seed=seed, payments=payments_fed(built))
    try:
        if tracer is not None:
            instrument(tracer)
        # Installed after the tracer, so the result capture wraps the
        # tracer's engine wrappers rather than hiding the engines from it.
        with captured_results() as results:
            replication.started = perf()
            try:
                simulate(spec, built, seed, schemes)
            except Exception as exc:  # reported as failed, not aborted
                replication.issues.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            finally:
                replication.wall = perf() - replication.started
    finally:
        if tracer is not None:
            tracer.restore()
    replication.results = list(results)
    if not replication.issues:
        replication.issues = replication.problems(spec)
    return replication


def measure_traced(spec: Spec, seed: int, schemes: dict, tracer, payments: int | None = None):
    """One replication measured untraced, then rebuilt and measured traced.

    Returns ``(untraced, traced, (build start, build end))``; a traced run
    whose record hashes differ from the untraced one gets an issue, because
    the wrappers must only observe.
    """
    built, build_interval = build_timed(spec, seed, payments)
    untraced = measure(spec, built, seed, schemes)
    built = build(spec, seed, payments)
    traced = measure(spec, built, seed, tracer.wrap_factories(schemes), tracer=tracer)
    if not untraced.issues and not traced.issues and untraced.hashes() != traced.hashes():
        traced.issues.append(f"seed {seed}: traced run differs from the untraced one")
    return untraced, traced, build_interval


def pooled(replications: list[Replication]) -> dict[str, float]:
    """Outcome metrics summed over schemes and replications."""
    results = [result for rep in replications for result in rep.results]
    transactions = sum(result.transactions for result in results)
    volume = sum(result.attempted_volume for result in results)
    return {
        "success_ratio": sum(r.succeeded for r in results) / transactions if transactions else 0.0,
        "success_volume_ratio": sum(r.success_volume for r in results) / volume if volume else 0.0,
        "probe_messages_per_payment": sum(r.probe_messages for r in results) / transactions
        if transactions
        else 0.0,
    }


def per_scheme_success(replications: list[Replication]) -> dict[str, float]:
    """Success ratio of each scheme over all replications."""
    tallies: dict[str, list[float]] = {}
    for rep in replications:
        for result in rep.results:
            tally = tallies.setdefault(result.scheme, [0.0, 0.0])
            tally[0] += result.succeeded
            tally[1] += result.transactions
    return {scheme: ok / total if total else 0.0 for scheme, (ok, total) in tallies.items()}
