"""Registry core of the scenario subsystem.

A *scenario* is the composition of three named, parameterized
ingredients:

* a **topology source** — builds a :class:`ChannelGraph` (synthetic
  generator or snapshot loader);
* a **workload generator** — builds a
  :class:`~repro.traces.workload.Workload` over the topology's nodes;
* an optional **dynamics model** — builds a stream of
  :class:`~repro.network.dynamics.ChannelEvent` churn events that the
  runner interleaves with the workload by timestamp;
* an optional **fault model** — builds a typed
  :class:`~repro.sim.faults.FaultSpec` that the factory compiles against
  the built graph into an adversarial event stream plus the attack
  windows the resilience metrics need (see :mod:`repro.sim.faults`).

Each ingredient is registered by name with a typed
:class:`ParamSpec` list, so the CLI can list, describe, and override
parameters without importing experiment code, and every future
experiment is a one-line :func:`register_scenario` call.

Entry points
------------
:func:`register_topology`, :func:`register_workload`,
:func:`register_dynamics`
    Register an ingredient builder under a name.
:func:`register_scenario`
    Compose registered ingredients into a named scenario.
:func:`get_scenario`, :func:`scenario_names`, :func:`iter_scenarios`
    Look scenarios up; :meth:`Scenario.factory` turns one into the
    :data:`~repro.sim.runner.ScenarioFactory` the runner consumes.

The built-in catalog lives in :mod:`repro.scenarios.catalog` and is
loaded by ``import repro.scenarios``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.network.dynamics import ChannelEvent
from repro.network.graph import ChannelGraph
from repro.traces.workload import Workload


class ScenarioError(ReproError):
    """An unknown name, bad parameter, or invalid registration."""


@dataclass(frozen=True)
class ParamSpec:
    """One typed, documented parameter of a registered builder.

    ``kind`` is the coercion target (``int``/``float``/``str``/``bool``);
    CLI ``--set key=value`` overrides are coerced through it, so builders
    always receive well-typed values.
    """

    name: str
    kind: type
    default: object
    help: str = ""

    def coerce(self, value: object) -> object:
        """Coerce ``value`` (possibly a CLI string) to this spec's type.

        A float must be finite: a NaN or infinite balance, rate or scale
        would otherwise build a network of meaningless numbers and run
        to completion on it.
        """
        try:
            if isinstance(value, self.kind):
                coerced = value
            elif self.kind is bool and isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    coerced = True
                elif lowered in ("0", "false", "no", "off"):
                    coerced = False
                else:
                    raise ValueError(value)
            else:
                coerced = self.kind(value)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"parameter {self.name!r} expects {self.kind.__name__}, "
                f"got {value!r}"
            ) from exc
        if self.kind is float and not math.isfinite(coerced):
            raise ScenarioError(
                f"parameter {self.name!r} expects a finite float, "
                f"got {value!r}"
            )
        return coerced


@dataclass(frozen=True)
class RegistryEntry:
    """A named builder plus its parameter specs and description."""

    name: str
    description: str
    builder: Callable
    params: tuple[ParamSpec, ...] = ()

    def bind(self, overrides: Mapping[str, object] | None = None) -> dict:
        """Defaults merged with coerced ``overrides``.

        Unknown override keys raise :class:`ScenarioError` — scenario
        definitions fail loudly instead of silently ignoring a typo.
        """
        bound = {spec.name: spec.default for spec in self.params}
        if overrides:
            specs = {spec.name: spec for spec in self.params}
            for key, value in overrides.items():
                if key not in specs:
                    known = ", ".join(sorted(specs)) or "(none)"
                    raise ScenarioError(
                        f"{self.name!r} has no parameter {key!r} "
                        f"(known: {known})"
                    )
                bound[key] = specs[key].coerce(value)
        return bound


class Registry:
    """A name -> :class:`RegistryEntry` table for one ingredient kind."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    def register(
        self,
        name: str,
        builder: Callable,
        description: str,
        params: Sequence[ParamSpec] = (),
    ) -> RegistryEntry:
        """Register ``builder`` under ``name``; duplicate names raise."""
        if name in self._entries:
            raise ScenarioError(f"{self.kind} {name!r} already registered")
        if not description:
            raise ScenarioError(f"{self.kind} {name!r} needs a description")
        entry = RegistryEntry(
            name=name,
            description=description,
            builder=builder,
            params=tuple(params),
        )
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> RegistryEntry:
        """The entry for ``name``; unknown names raise :class:`ScenarioError`."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "(none)"
            raise ScenarioError(
                f"unknown {self.kind} {name!r} (known: {known})"
            ) from None

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: The four ingredient registries.  Builder signatures:
#: topology ``(rng, **params) -> ChannelGraph``;
#: workload ``(rng, nodes, **params) -> Workload``;
#: dynamics ``(rng, graph, duration_seconds, **params) -> list[ChannelEvent]``;
#: fault ``(**params) -> FaultSpec`` (pure — compiled against the built
#: graph inside the scenario factory).
TOPOLOGIES = Registry("topology")
WORKLOADS = Registry("workload")
DYNAMICS = Registry("dynamics")
FAULTS = Registry("fault")


def register_topology(
    name: str,
    builder: Callable[..., ChannelGraph],
    description: str,
    params: Sequence[ParamSpec] = (),
) -> RegistryEntry:
    """Register a topology source: ``builder(rng, **params) -> ChannelGraph``."""
    return TOPOLOGIES.register(name, builder, description, params)


def register_workload(
    name: str,
    builder: Callable[..., Workload],
    description: str,
    params: Sequence[ParamSpec] = (),
) -> RegistryEntry:
    """Register a workload generator: ``builder(rng, nodes, **params) -> Workload``."""
    return WORKLOADS.register(name, builder, description, params)


def register_dynamics(
    name: str,
    builder: Callable[..., list[ChannelEvent]],
    description: str,
    params: Sequence[ParamSpec] = (),
) -> RegistryEntry:
    """Register a dynamics model: ``builder(rng, graph, duration_seconds, **params)``."""
    return DYNAMICS.register(name, builder, description, params)


def register_fault(
    name: str,
    builder: Callable,
    description: str,
    params: Sequence[ParamSpec] = (),
) -> RegistryEntry:
    """Register a fault model: ``builder(**params) -> FaultSpec``.

    The builder is pure spec construction (its ``__post_init__``
    validates ranges eagerly); the scenario factory compiles the spec
    against the built graph via :func:`repro.sim.faults.compile_faults`.
    """
    return FAULTS.register(name, builder, description, params)


@dataclass(frozen=True)
class EvalMatrix:
    """A scenario's default evaluation matrix for ``repro report``.

    ``report=True`` opts the scenario into the headline comparison that
    :mod:`repro.eval.report` generates (Flash vs the four baselines);
    ``runs``/``transactions`` are the full-report defaults and the
    ``smoke_*`` pair the reduced CI drift-check configuration.
    ``smoke=True`` additionally includes the scenario in
    ``repro report --smoke`` (keep that set small and deterministic —
    its tables are golden-checked in CI).
    """

    report: bool = False
    runs: int = 3
    transactions: int = 250
    smoke: bool = False
    smoke_runs: int = 2
    smoke_transactions: int = 30

    def config(self, smoke: bool) -> tuple[int, int]:
        """The ``(runs, transactions)`` pair for full or smoke mode."""
        if smoke:
            return self.smoke_runs, self.smoke_transactions
        return self.runs, self.transactions


@dataclass(frozen=True)
class Scenario:
    """A named (topology x workload x dynamics) composition.

    ``figure`` names the paper figure the scenario reproduces (empty for
    scenarios that go beyond the paper).  Parameter dicts here are the
    *scenario-level* defaults layered over each ingredient's own
    defaults; :meth:`factory` layers per-call overrides on top of both.
    ``eval_matrix`` carries the scenario's default evaluation
    configuration for the report generator (see :class:`EvalMatrix`).

    ``engine`` selects the scenario's default simulation engine
    (``"sequential"`` or ``"concurrent"``); ``engine_params`` are its
    default :class:`~repro.sim.concurrent.ConcurrencyConfig` knobs and
    ``mpp_params`` (``None``: MPP off) its
    :class:`~repro.sim.mpp.MppConfig` knobs.  The runner and CLI pick
    them up for registered names and let callers override them (see
    :func:`repro.sim.runner.resolve_run_config`).

    ``faults`` names a registered fault model (:data:`FAULTS`) whose
    compiled plan the factory attaches to every build — the scenario
    then runs under adversarial load and its results carry the
    resilience metric family (:mod:`repro.sim.faults`).
    """

    name: str
    description: str
    topology: str
    workload: str
    dynamics: str | None = None
    topology_params: Mapping[str, object] = field(default_factory=dict)
    workload_params: Mapping[str, object] = field(default_factory=dict)
    dynamics_params: Mapping[str, object] = field(default_factory=dict)
    figure: str = ""
    eval_matrix: EvalMatrix = field(default_factory=EvalMatrix)
    engine: str = "sequential"
    engine_params: Mapping[str, object] = field(default_factory=dict)
    faults: str | None = None
    fault_params: Mapping[str, object] = field(default_factory=dict)
    mpp_params: Mapping[str, object] | None = None

    def ingredients(self) -> str:
        """``topology x workload [+ dynamics] [! faults] [@ engine]`` summary."""
        parts = f"{self.topology} x {self.workload}"
        if self.dynamics:
            parts += f" + {self.dynamics}"
        if self.faults:
            parts += f" ! {self.faults}"
        if self.engine != "sequential":
            parts += f" @ {self.engine}"
        if self.mpp_params is not None:
            parts += " / mpp"
        return parts

    def run_knobs(self) -> dict[str, object]:
        """This scenario's own engine and MPP knobs, as keywords.

        What :func:`repro.sim.runner.run_comparison` and
        :func:`repro.sim.runner.resolve_run_config` take, read off this
        object rather than looked up by name, so a scenario changed with
        ``dataclasses.replace`` runs as changed.
        """
        return {
            "engine": self.engine,
            "engine_params": self.engine_params,
            "mpp_params": self.mpp_params,
        }

    def cell_params(
        self,
        topology_overrides: Mapping[str, object] | None = None,
        workload_overrides: Mapping[str, object] | None = None,
        dynamics_overrides: Mapping[str, object] | None = None,
        fault_overrides: Mapping[str, object] | None = None,
    ) -> dict[str, object]:
        """The ingredient parameters a store cell of this scenario is keyed by.

        The overrides layered over the *registered* defaults, so editing
        the catalog invalidates stale records instead of silently
        resuming from them.  The ``faults`` section exists only for a
        scenario with a fault ingredient, so every fault-free record
        written before the fault layer keeps its digest.
        """
        params: dict[str, object] = {
            "topology": {**self.topology_params, **(topology_overrides or {})},
            "workload": {**self.workload_params, **(workload_overrides or {})},
            "dynamics": {**self.dynamics_params, **(dynamics_overrides or {})},
        }
        if self.faults is not None:
            params["faults"] = {
                "model": self.faults,
                **self.fault_params,
                **(fault_overrides or {}),
            }
        return params

    def factory(
        self,
        topology_overrides: Mapping[str, object] | None = None,
        workload_overrides: Mapping[str, object] | None = None,
        dynamics_overrides: Mapping[str, object] | None = None,
        fault_overrides: Mapping[str, object] | None = None,
    ):
        """A seeded builder the runner consumes.

        Returns a callable ``(random.Random) -> (graph, workload)`` — or
        ``(graph, workload, events)`` when the scenario has a dynamics
        model, or ``(graph, workload, events, fault_plan)`` when it has
        a fault model (``events`` then may be empty);
        :func:`repro.sim.runner.run_comparison` accepts every shape.
        Overrides are validated against each ingredient's
        :class:`ParamSpec` list at call time, so a bad override fails
        before any run starts.
        """
        topology_entry = TOPOLOGIES.get(self.topology)
        workload_entry = WORKLOADS.get(self.workload)
        dynamics_entry = DYNAMICS.get(self.dynamics) if self.dynamics else None
        fault_entry = FAULTS.get(self.faults) if self.faults else None
        if dynamics_entry is None and dynamics_overrides:
            raise ScenarioError(
                f"scenario {self.name!r} has no dynamics ingredient; "
                f"dynamics overrides {sorted(dynamics_overrides)} have "
                "no effect"
            )
        if fault_entry is None and fault_overrides:
            raise ScenarioError(
                f"scenario {self.name!r} has no fault ingredient; "
                f"fault overrides {sorted(fault_overrides)} have no effect"
            )

        topology_kwargs = topology_entry.bind(
            {**self.topology_params, **(topology_overrides or {})}
        )
        workload_kwargs = workload_entry.bind(
            {**self.workload_params, **(workload_overrides or {})}
        )
        dynamics_kwargs = (
            dynamics_entry.bind(
                {**self.dynamics_params, **(dynamics_overrides or {})}
            )
            if dynamics_entry
            else {}
        )
        fault_spec = None
        if fault_entry is not None:
            bound = fault_entry.bind(
                {**self.fault_params, **(fault_overrides or {})}
            )
            try:
                fault_spec = fault_entry.builder(**bound)
            except ValueError as exc:
                raise ScenarioError(
                    f"scenario {self.name!r} has bad fault parameters: {exc}"
                ) from exc

        def build(rng: random.Random):
            graph = topology_entry.builder(rng, **topology_kwargs)
            workload = workload_entry.builder(rng, graph.nodes, **workload_kwargs)
            if dynamics_entry is None and fault_spec is None:
                return graph, workload
            horizon = (
                workload[len(workload) - 1].time if len(workload) else 0.0
            )
            events = (
                dynamics_entry.builder(rng, graph, horizon, **dynamics_kwargs)
                if dynamics_entry is not None
                else []
            )
            if fault_spec is None:
                return graph, workload, events
            # The fault plan compiles after graph/workload/churn so the
            # extra rng draws cannot perturb a fault-free build.
            from repro.sim.faults import compile_faults

            plan = compile_faults(fault_spec, graph, rng, horizon)
            return graph, workload, events, plan

        return build


#: Name -> :class:`Scenario` catalog (populated by ``catalog.py`` and
#: user code via :func:`register_scenario`).
SCENARIOS: dict[str, Scenario] = {}


def register_scenario(
    name: str,
    description: str,
    topology: str,
    workload: str,
    dynamics: str | None = None,
    topology_params: Mapping[str, object] | None = None,
    workload_params: Mapping[str, object] | None = None,
    dynamics_params: Mapping[str, object] | None = None,
    figure: str = "",
    eval_matrix: EvalMatrix | None = None,
    engine: str = "sequential",
    engine_params: Mapping[str, object] | None = None,
    faults: str | None = None,
    fault_params: Mapping[str, object] | None = None,
    mpp_params: Mapping[str, object] | None = None,
) -> Scenario:
    """Compose registered ingredients into a named scenario.

    All ingredient names, scenario-level parameter defaults, engine
    knobs, fault parameters, and MPP knobs are validated eagerly (a typo
    fails at registration, not first run).  Returns the
    :class:`Scenario` for convenience.

    ``mpp_params`` (a mapping, possibly empty for all defaults) turns
    multi-part payments on for the scenario; ``None`` (the default)
    keeps it off, so existing scenarios and their store digests are
    untouched.
    """
    if name in SCENARIOS:
        raise ScenarioError(f"scenario {name!r} already registered")
    if not description:
        raise ScenarioError(f"scenario {name!r} needs a description")
    if dynamics is None and dynamics_params:
        raise ScenarioError(
            f"scenario {name!r} sets dynamics_params "
            f"{sorted(dynamics_params)} but no dynamics ingredient"
        )
    if faults is None and fault_params:
        raise ScenarioError(
            f"scenario {name!r} sets fault_params "
            f"{sorted(fault_params)} but no fault ingredient"
        )
    if eval_matrix is not None and eval_matrix.smoke and not eval_matrix.report:
        raise ScenarioError(
            f"scenario {name!r} marks smoke=True without report=True"
        )
    # Engine and MPP knobs go through the runner's one resolver
    # (imported lazily: repro.sim pulls no scenario code).
    from repro.sim.runner import resolve_run_config

    try:
        resolve_run_config(None, engine, engine_params, mpp_params)
    except ValueError as exc:
        raise ScenarioError(
            f"scenario {name!r} has a bad engine or MPP setting: {exc}"
        ) from exc
    scenario = Scenario(
        name=name,
        description=description,
        topology=topology,
        workload=workload,
        dynamics=dynamics,
        topology_params=dict(topology_params or {}),
        workload_params=dict(workload_params or {}),
        dynamics_params=dict(dynamics_params or {}),
        figure=figure,
        eval_matrix=eval_matrix or EvalMatrix(),
        engine=engine,
        engine_params=dict(engine_params or {}),
        faults=faults,
        fault_params=dict(fault_params or {}),
        mpp_params=dict(mpp_params) if mpp_params is not None else None,
    )
    # Eager validation: ingredient lookup + parameter binding both raise
    # ScenarioError on any mismatch.
    TOPOLOGIES.get(topology).bind(scenario.topology_params)
    WORKLOADS.get(workload).bind(scenario.workload_params)
    if dynamics is not None:
        DYNAMICS.get(dynamics).bind(scenario.dynamics_params)
    if faults is not None:
        entry = FAULTS.get(faults)
        bound = entry.bind(scenario.fault_params)
        try:
            # Constructing the spec runs its __post_init__ range checks.
            entry.builder(**bound)
        except ValueError as exc:
            raise ScenarioError(
                f"scenario {name!r} has bad fault_params: {exc}"
            ) from exc
    SCENARIOS[name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """The registered :class:`Scenario`; unknown names raise with the catalog."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS)) or "(none)"
        raise ScenarioError(
            f"unknown scenario {name!r} (known: {known})"
        ) from None


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIOS)


def iter_scenarios() -> Iterator[Scenario]:
    """Registered scenarios in name order."""
    for name in scenario_names():
        yield SCENARIOS[name]


def report_scenarios(smoke: bool = False) -> list[Scenario]:
    """Scenarios opted into the headline report matrix, in name order.

    ``smoke=True`` restricts to the deterministic smoke subset whose
    tables are golden-checked in CI.
    """
    return [
        scenario
        for scenario in iter_scenarios()
        if scenario.eval_matrix.report
        and (scenario.eval_matrix.smoke or not smoke)
    ]
