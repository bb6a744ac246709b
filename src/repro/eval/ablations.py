"""Ablation studies for the design choices DESIGN.md calls out.

* **A1 — k sweep**: the paper asserts "setting k between 20 to 30 provides
  good performance" (§3.2); we sweep k and report success volume + probing.
* **A2 — mice path order**: §3.3 argues random path order load-balances
  better than a fixed order; we compare both.
* **A3 — path finding**: the Fig 5 discussion — modified Edmonds–Karp vs
  exact max-flow (full knowledge) vs k edge-disjoint shortest paths
  (Spider's choice) on how much of the true max-flow each discovers.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.core.maxflow import find_elephant_paths
from repro.network.channel import NodeId
from repro.network.graph import ChannelGraph
from repro.network.paths import edge_disjoint_shortest_paths
from repro.network.view import NetworkView
from repro.scenarios import Scenario
from repro.sim.factories import flash_factory
from repro.sim.metrics import AveragedMetrics
from repro.sim.results import format_series, format_table
from repro.sim.runner import run_comparison


# ------------------------------------------------------------ exact max-flow


def exact_max_flow(graph: ChannelGraph, source: NodeId, target: NodeId) -> float:
    """Ground-truth Edmonds–Karp on live balances (full knowledge).

    This is the oracle Algorithm 1 approximates with at most ``k`` probed
    paths; the ablation measures how close the approximation gets.
    """
    residual: dict[tuple[NodeId, NodeId], float] = {}
    for channel in graph.channels():
        a, b = channel.endpoints()
        residual[(a, b)] = channel.balance(a, b)
        residual[(b, a)] = channel.balance(b, a)
    adjacency = graph.adjacency()
    flow = 0.0
    while True:
        parent: dict[NodeId, NodeId] = {source: source}
        queue: deque[NodeId] = deque([source])
        while queue and target not in parent:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent and residual.get((u, v), 0.0) > 1e-9:
                    parent[v] = u
                    queue.append(v)
        if target not in parent:
            return flow
        path = [target]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = min(
            residual[(u, v)] for u, v in zip(path, path[1:])
        )
        flow += bottleneck
        for u, v in zip(path, path[1:]):
            residual[(u, v)] -= bottleneck
            residual[(v, u)] = residual.get((v, u), 0.0) + bottleneck


# ------------------------------------------------------------------- A1: k


@dataclass(frozen=True)
class KSweepResult:
    k_values: tuple[int, ...]
    series: dict[int, AveragedMetrics]

    def format(self) -> str:
        return format_series(
            "k",
            self.k_values,
            {
                "success volume": [
                    self.series[k].success_volume for k in self.k_values
                ],
                "probing messages": [
                    self.series[k].probe_messages for k in self.k_values
                ],
            },
            "metric",
        )


def ablation_k_sweep(
    scenario: Scenario,
    k_values: tuple[int, ...] = (1, 5, 10, 20, 30),
    capacity_scale: float = 10.0,
    runs: int = 3,
    seed: int = 0,
) -> KSweepResult:
    """A1: success volume saturates around k=20-30 while probing grows."""
    build = scenario.factory(topology_overrides={"scale": capacity_scale})
    series = {}
    for k in k_values:
        comparison = run_comparison(
            build,
            {"Flash": flash_factory(k=k)},
            runs=runs,
            base_seed=seed,
        )
        series[k] = comparison["Flash"]
    return KSweepResult(k_values=tuple(k_values), series=series)


# ------------------------------------------------------------ A2: path order


@dataclass(frozen=True)
class MiceOrderResult:
    random_order: AveragedMetrics
    fixed_order: AveragedMetrics

    def format(self) -> str:
        rows = [
            [
                "random order",
                f"{self.random_order.success_ratio * 100:.1f}",
                f"{self.random_order.success_volume:.3e}",
            ],
            [
                "fixed order",
                f"{self.fixed_order.success_ratio * 100:.1f}",
                f"{self.fixed_order.success_volume:.3e}",
            ],
        ]
        return format_table(
            ["mice path order", "succ. ratio (%)", "succ. volume"], rows
        )


def ablation_mice_order(
    scenario: Scenario,
    capacity_scale: float = 10.0,
    runs: int = 3,
    seed: int = 0,
) -> MiceOrderResult:
    """A2: random vs fixed path order in the mice trial-and-error loop."""
    comparison = run_comparison(
        scenario.factory(topology_overrides={"scale": capacity_scale}),
        {
            "random": flash_factory(shuffle_mice_paths=True),
            "fixed": flash_factory(shuffle_mice_paths=False),
        },
        runs=runs,
        base_seed=seed,
    )
    return MiceOrderResult(
        random_order=comparison["random"], fixed_order=comparison["fixed"]
    )


# ---------------------------------------------------------- A3: path finding


@dataclass(frozen=True)
class PathFindingResult:
    """Flow discovered per strategy, averaged over sampled pairs."""

    pairs: int
    exact_flow: float
    modified_ek_flow: float
    edge_disjoint_flow: float
    modified_ek_probes: float

    def format(self) -> str:
        rows = [
            ["exact max-flow (oracle)", f"{self.exact_flow:.3e}", "-"],
            [
                "modified EK (k paths)",
                f"{self.modified_ek_flow:.3e}",
                f"{self.modified_ek_probes:.0f}",
            ],
            [
                "edge-disjoint shortest",
                f"{self.edge_disjoint_flow:.3e}",
                "-",
            ],
        ]
        return format_table(
            ["path finding", "mean discoverable flow", "probe msgs"], rows
        )


def ablation_path_finding(
    scenario: Scenario,
    k: int = 20,
    num_pairs: int = 30,
    capacity_scale: float = 10.0,
    seed: int = 0,
) -> PathFindingResult:
    """A3: how much of the oracle max-flow each strategy can use.

    Edge-disjoint capacity is the sum of bottlenecks of k edge-disjoint
    shortest paths — Spider's usable capacity (Fig 5b's pathology)."""
    rng = random.Random(seed)
    build = scenario.factory(topology_overrides={"scale": capacity_scale})
    graph, _ = build(rng)
    topology = graph.compact()
    nodes = graph.nodes
    exact_total = 0.0
    ek_total = 0.0
    disjoint_total = 0.0
    probes_total = 0.0
    sampled = 0
    while sampled < num_pairs:
        a, b = rng.sample(nodes, 2)
        exact = exact_max_flow(graph, a, b)
        if exact <= 0:
            continue
        sampled += 1
        exact_total += exact
        view = NetworkView(graph)
        search = find_elephant_paths(topology, view, a, b, float("inf"), k)
        ek_total += search.max_flow
        probes_total += view.counters.probe_messages
        disjoint = edge_disjoint_shortest_paths(topology, a, b, k)
        disjoint_total += sum(
            graph.path_bottleneck(path) for path in disjoint
        )
    return PathFindingResult(
        pairs=sampled,
        exact_flow=exact_total / sampled,
        modified_ek_flow=ek_total / sampled,
        edge_disjoint_flow=disjoint_total / sampled,
        modified_ek_probes=probes_total / sampled,
    )
