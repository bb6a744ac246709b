"""Per-layer tracing of one benchmark replication, from outside the program.

The tracer wraps public functions and methods of :mod:`repro` for the
duration of one traced replication and restores the originals afterwards;
nothing in ``src/`` knows it exists.  Functions that consumers bound with
``from ... import`` (for example ``repro.core.routing_table.
yen_k_shortest_paths``) are patched in every loaded ``repro`` module that
holds the same object, so a call through any binding is seen.

Every wrapped call opens a span: name, start, end, the span that was open
when it started (its parent), the routed transaction's txid and the
scheme being simulated.  Spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus the durations of its
child spans; the self times of all spans under the root add up to the
root's duration, so the layer totals account for the traced wall time
exactly, apart from the cost of entering and leaving the root wrapper
(reported as ``trace.unattributed_s``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator

perf = time.perf_counter

#: Router display name -> metric key of its scheme.
SCHEME_KEYS = {
    "Flash": "flash",
    "Spider": "spider",
    "SpeedyMurmurs": "speedymurmurs",
    "Shortest Path": "shortest_path",
}

#: Layers whose self times, with the per-scheme router self times,
#: partition the traced wall time.
LAYERS = (
    "kernel",
    "core",
    "view",
    "graph",
    "dynamics",
    "engine",
    "traces",
    "metrics",
    "setup",
    "runner",
)

#: Percentiles tried for ``route_tail_us``, highest first.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Span:
    """One wrapped call."""

    __slots__ = ("ident", "name", "parent", "txid", "scheme", "start", "end", "child")

    def __init__(self, ident, name, parent, txid, scheme):
        self.ident = ident
        self.name = name
        self.parent = parent
        self.txid = txid
        self.scheme = scheme
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        #: ``id(router factory) -> scheme display name``, so the engine
        #: wrapper can tell which scheme a simulation belongs to.
        self.factory_names: dict[int, str] = {}
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.txid: int | None = None
        self.scheme: str | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.route_us: dict[str, list[float]] = defaultdict(list)
        self.accepted: dict[str, int] = defaultdict(int)
        self._next_ident = 0
        self._patches: list[tuple[object, str, object]] = []
        #: Wrapped span name -> number of patched bindings.
        self.wrapped: dict[str, int] = {}

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> Span:
        stack = self.stack
        parent = stack[-1] if stack else None
        span = Span(self._next_ident, name, parent, self.txid, self.scheme)
        self._next_ident += 1
        stack.append(span)
        span.start = perf()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def wrap_factories(self, factories: dict) -> dict:
        """Router factories that time the router build as ``setup``.

        The engine wrappers recognise the returned factories, which is how
        spans learn the scheme they belong to.
        """
        wrapped = {
            name: self._wrapper("setup.router_build", factory)
            for name, factory in factories.items()
        }
        self.factory_names.update({id(factory): name for name, factory in wrapped.items()})
        return wrapped

    def _wrapper(self, name, fn, naming=None, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            restore = before(tracer, args) if before is not None else None
            span = tracer._open(naming(args) if naming is not None else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if restore is not None:
                    restore()
            if after is not None:
                after(tracer, span, args, result)
            return result

        return wrapper

    def _stream_iter(self, iterator: Iterator) -> Iterator:
        """Time each item a workload stream yields."""
        while True:
            span = self._open("traces.stream")
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(span)
            span.txid = item.txid
            self.counts["traces.stream.items"] += 1
            yield item

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_function(self, module_name: str, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function in every ``repro`` module bound to it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrapper(name, original, **hooks)
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if module.__dict__.get(attr) is original:
                self._patch(module, attr, wrapper)
                bound += 1
        self.wrapped[name] = self.wrapped.get(name, 0) + bound

    def wrap_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap a method defined on ``cls`` itself."""
        self._patch(cls, attr, self._wrapper(name, cls.__dict__[attr], **hooks))
        self.wrapped[name] = self.wrapped.get(name, 0) + 1

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patches)

    # ---------------------------------------------------------- results

    def write(self, path, wall: float) -> None:
        """Write the spans as JSON lines, one per (scheme, txid)."""
        groups: dict[tuple, list] = defaultdict(list)
        origin = min((span.start for span in self.spans), default=0.0)
        for span in self.spans:
            groups[(span.scheme or "", -1 if span.txid is None else span.txid)].append(
                [
                    span.ident,
                    span.name,
                    -1 if span.parent is None else span.parent.ident,
                    round((span.start - origin) * 1e6, 3),
                    round(span.duration * 1e6, 3),
                ]
            )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"wall_s": wall, "spans": len(self.spans),
                                     "fields": ["id", "name", "parent", "start_us", "dur_us"]}) + "\n")
            for (scheme, txid), spans in sorted(groups.items()):
                handle.write(json.dumps({"scheme": scheme, "txid": txid, "spans": spans}) + "\n")

    def layer_metrics(self, wall: float, payments: int) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics."""
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            calls[span.name] += 1
            inclusive[span.name] += duration
            layer = span.name.split(".", 1)[0]
            if layer == "router":
                layer = ".".join(span.name.split(".")[:2])
            self_time[layer] += duration - span.child
        counts = self.counts
        m: dict[str, float] = {}

        def pair(key: str, name: str) -> None:
            m[f"{key}.calls"] = calls[name]
            m[f"{key}.s"] = inclusive[name]

        for key in ("yen", "spur_search", "bfs_tree", "residual_search", "bfs_path", "disjoint"):
            pair(f"kernel.{key}", f"kernel.{key}")
        for key in ("table_lookup", "table_replace", "table_apply_events", "maxflow", "fee_split", "mice"):
            pair(f"core.{key}", f"core.{key}")
        lookups = calls["core.table_lookup"]
        m["core.table_hit_ratio"] = counts["core.table_lookup.hits"] / lookups if lookups else 0.0
        maxflows = calls["core.maxflow"]
        m["core.maxflow.satisfied_ratio"] = counts["core.maxflow.satisfied"] / maxflows if maxflows else 0.0
        m["core.mice.dead_paths"] = counts["core.mice.dead_paths"]
        route_calls = 0
        for key in SCHEME_KEYS.values():
            name = f"router.{key}"
            samples = sorted(self.route_us.get(key, ()))
            route_calls += len(samples)
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = inclusive[name]
            m[f"{name}.self_s"] = self_time[name]
            m[f"{name}.accept_ratio"] = self.accepted[key] / len(samples) if samples else 0.0
            m[f"{name}.route_p50_us"] = nearest_rank(samples, 50.0)
            tail = tail_percentile(len(samples))
            m[f"{name}.route_tail_pct"] = tail
            m[f"{name}.route_tail_us"] = nearest_rank(samples, tail)
            m[f"{name}.topology_update_s"] = inclusive[f"{name}.topology_update"]
        pair("view.reserve", "view.reserve")
        reserves = calls["view.reserve"]
        m["view.reserve.fail_ratio"] = counts["view.reserve.failed"] / reserves if reserves else 0.0
        pair("view.execute", "view.execute")
        pair("graph.compact", "graph.compact")
        pair("graph.copy", "graph.copy")
        pair("dynamics.advance", "dynamics.advance")
        pair("dynamics.reprice", "dynamics.reprice")
        m["dynamics.gossip_ticks"] = sum(calls[f"router.{key}.topology_update"] for key in SCHEME_KEYS.values())
        m["engine.events"] = counts["engine.events"]
        m["engine.attempts_per_payment"] = route_calls / payments if payments else 0.0
        m["traces.stream.items"] = counts["traces.stream.items"]
        m["traces.stream.s"] = inclusive["traces.stream"]
        pair("metrics.observe", "metrics.observe")
        m["metrics.finalize.s"] = inclusive["metrics.finalize"]
        m["setup.router_build_s"] = inclusive["setup.router_build"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        m["trace.unattributed_s"] = wall - sum(self_time.values())
        m["trace.wall_s"] = wall
        m["trace.spans"] = len(self.spans)
        return m


def nearest_rank(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    rank = max(1, -(-len(samples) * pct // 100))
    return samples[min(len(samples), int(rank)) - 1]


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0 if count else 0.0


# ---------------------------------------------------------------- targets


def _route_before(tracer: Tracer, args) -> Callable[[], None]:
    previous = tracer.txid
    tracer.txid = args[1].txid
    return lambda: setattr(tracer, "txid", previous)


def _route_after(tracer: Tracer, span: Span, args, outcome) -> None:
    key = SCHEME_KEYS.get(args[0].name, args[0].name)
    tracer.route_us[key].append((span.end - span.start) * 1e6)
    if outcome.success:
        tracer.accepted[key] += 1


def _engine_before(tracer: Tracer, args) -> Callable[[], None]:
    previous = tracer.scheme
    tracer.scheme = tracer.factory_names.get(id(args[1]), previous)
    return lambda: setattr(tracer, "scheme", previous)


def _count(key: str, value: Callable) -> Callable:
    def after(tracer: Tracer, span: Span, args, result) -> None:
        tracer.counts[key] += value(args, result)

    return after


def _lookup_before(tracer: Tracer, args) -> None:
    table, sender, receiver = args[0], args[1], args[2]
    if (sender, receiver) in table:
        tracer.counts["core.table_lookup.hits"] += 1


def instrument(tracer: Tracer) -> None:
    """Patch every traced function; call :meth:`Tracer.restore` to undo."""
    from repro.baselines.shortest_path import ShortestPathRouter
    from repro.baselines.speedymurmurs import SpeedyMurmursRouter
    from repro.baselines.spider import SpiderRouter
    from repro.core.base import Router
    from repro.core.flash import FlashRouter
    from repro.core.routing_table import RoutingTable
    from repro.network.compact import CompactTopology
    from repro.network.dynamics import GossipSchedule
    from repro.network.feemarket import FeeMarketController
    from repro.network.graph import ChannelGraph
    from repro.network.view import NetworkView, PaymentSession
    from repro.protocol.events import EventQueue
    from repro.sim.concurrent import ConcurrentNetworkView
    from repro.sim.metrics import StreamingMetricsAccumulator
    from repro.traces.workload import WorkloadStream

    t = tracer
    # kernels
    t.wrap_function("repro.network.paths", "yen_k_shortest_paths", "kernel.yen")
    t.wrap_function("repro.network.paths", "bfs_tree_parents", "kernel.bfs_tree")
    t.wrap_function("repro.network.paths", "bfs_shortest_path", "kernel.bfs_path")
    t.wrap_function("repro.network.paths", "edge_disjoint_shortest_paths", "kernel.disjoint")
    t.wrap_method(CompactTopology, "shortest_path_banned", "kernel.spur_search")
    t.wrap_method(CompactTopology, "shortest_path_residual", "kernel.residual_search")
    # Flash core
    t.wrap_method(RoutingTable, "lookup", "core.table_lookup", before=_lookup_before)
    t.wrap_method(RoutingTable, "replace_path", "core.table_replace")
    t.wrap_method(RoutingTable, "apply_events", "core.table_apply_events")
    t.wrap_function(
        "repro.core.maxflow", "find_elephant_paths", "core.maxflow",
        after=_count("core.maxflow.satisfied", lambda args, result: int(result.satisfied)),
    )
    t.wrap_function("repro.core.fee_optimizer", "split_payment", "core.fee_split")
    t.wrap_function(
        "repro.core.mice", "route_mice_payment", "core.mice",
        after=_count("core.mice.dead_paths", lambda args, result: len(result.dead_paths)),
    )
    # routers
    t.wrap_method(
        Router, "route", "router.*",
        naming=lambda args: f"router.{SCHEME_KEYS.get(args[0].name, args[0].name)}",
        before=_route_before, after=_route_after,
    )
    for cls in (FlashRouter, SpiderRouter, SpeedyMurmursRouter, ShortestPathRouter):
        t.wrap_method(
            cls, "on_topology_update", "router.*.topology_update",
            naming=lambda args: f"router.{SCHEME_KEYS.get(args[0].name, args[0].name)}.topology_update",
        )
    # balance state
    t.wrap_method(
        PaymentSession, "try_reserve", "view.reserve",
        after=_count("view.reserve.failed", lambda args, result: int(not result)),
    )
    t.wrap_method(NetworkView, "try_execute", "view.execute")
    t.wrap_method(ConcurrentNetworkView, "try_execute", "view.execute")
    t.wrap_method(ChannelGraph, "compact", "graph.compact")
    t.wrap_method(ChannelGraph, "copy", "graph.copy")
    # dynamics
    t.wrap_method(GossipSchedule, "advance_to", "dynamics.advance")
    t.wrap_method(FeeMarketController, "update", "dynamics.reprice")
    # engines
    for module_name, attr in (
        ("repro.sim.engine", "run_simulation"),
        ("repro.network.dynamics", "run_dynamic_simulation"),
        ("repro.sim.concurrent", "run_concurrent_simulation"),
    ):
        t.wrap_function(module_name, attr, f"engine.{attr}", before=_engine_before)
    t.wrap_method(
        EventQueue, "run_until_idle", "engine.run_until_idle",
        after=_count("engine.events", lambda args, result: result),
    )
    # traces and metrics
    original_iter = WorkloadStream.__dict__["__iter__"]

    @functools.wraps(original_iter)
    def stream_iter(self):
        return t._stream_iter(original_iter(self))

    t._patch(WorkloadStream, "__iter__", stream_iter)
    t.wrapped["traces.stream"] = 1
    t.wrap_method(StreamingMetricsAccumulator, "observe", "metrics.observe")
    t.wrap_method(StreamingMetricsAccumulator, "result", "metrics.finalize")
    t.wrap_function("repro.sim.metrics", "fee_metrics", "metrics.finalize")
    # runner
    t.wrap_function("repro.sim.runner", "run_comparison", "runner.run_comparison")
