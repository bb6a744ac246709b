"""Self-test of the benchmark's tracer, on smoke-sized replications.

Checks that every wrapped function records calls on the workload that
exercises it (a renamed or rebound function would otherwise zero a layer
silently), that the originals are restored, that tracing changes no
output, and that the layer self times account for the traced wall time.
"""

from __future__ import annotations

import pytest

from perfbench import tracer as tracing
from perfbench import workloads

#: Payments per smoke replication, and the wrapped names (scheme
#: replaced by ``*``) each workload must call at least once.
SMOKE = {
    "depletion": (
        150,
        {
            "kernel.yen",
            "kernel.spur_search",
            "kernel.bfs_tree",
            "kernel.residual_search",
            "kernel.bfs_path",
            "kernel.disjoint",
            "core.table_lookup",
            "core.table_replace",
            "core.maxflow",
            "core.fee_split",
            "core.mice",
            "router.*",
            "view.reserve",
            "view.execute",
            "graph.compact",
            "graph.copy",
            "engine.run_simulation",
            "setup.router_build",
            "runner.run_comparison",
        },
    ),
    "churn": (
        20,
        {
            "core.table_apply_events",
            "router.*.topology_update",
            "dynamics.advance",
            "engine.run_dynamic_simulation",
        },
    ),
    "fees": (60, {"dynamics.reprice", "metrics.finalize"}),
    "stream": (
        300,
        {
            "traces.stream",
            "metrics.observe",
            "metrics.finalize",
            "engine.run_concurrent_simulation",
            "engine.run_until_idle",
        },
    ),
}


def _generic(name: str) -> str:
    parts = name.split(".")
    if parts[0] == "router":
        parts[1] = "*"
    return ".".join(parts)


@pytest.fixture(scope="module")
def originals():
    """Every (owner, attribute, original) the tracer patches."""
    probe = tracing.Tracer()
    tracing.instrument(probe)
    patched = probe.patched()
    names = dict(probe.wrapped)
    probe.restore()
    return patched, names


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_tracer_observes_and_restores(workload, originals):
    patched, _names = originals
    payments, expected = SMOKE[workload]
    spec = workloads.SPECS[workload]
    tracer = tracing.Tracer()
    untraced, traced, _ = workloads.measure_traced(
        spec, 0, workloads.factories(spec), tracer, payments=payments
    )

    assert not untraced.issues and not traced.issues, untraced.issues + traced.issues
    assert untraced.hashes() == traced.hashes()
    called = {_generic(span.name) for span in tracer.spans}
    assert expected <= called, sorted(expected - called)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)

    metrics = tracer.layer_metrics(traced.wall, payments * len(spec.schemes))
    self_times = [value for name, value in metrics.items() if name.endswith("self_s")]
    assert min(self_times) >= 0.0
    total = sum(self_times) + metrics["trace.unattributed_s"]
    assert total == pytest.approx(traced.wall, rel=1e-9, abs=1e-9)
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.05 * traced.wall


def test_every_wrapped_name_is_expected_somewhere(originals):
    _patched, names = originals
    expected = set().union(*(names_ for _, names_ in SMOKE.values()))
    # Router factories are wrapped per run, not patched by instrument().
    assert set(names) | {"setup.router_build"} == expected
    assert all(count >= 1 for count in names.values()), names
