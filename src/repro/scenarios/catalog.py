"""Built-in scenario catalog: named topologies, workloads, dynamics.

Importing :mod:`repro.scenarios` loads this module, which populates the
registries of :mod:`repro.scenarios.registry` with:

* **topology sources** — the synthetic Ripple/Lightning/testbed
  generators plus the bundled snapshot loaders (a 96-node Ripple-style
  CSV and a 96-node Lightning-style JSON under ``scenarios/data/``);
* **workload generators** — the two trace-calibrated workloads of §4.1
  and the synthetic stress shapes of :mod:`repro.traces.synthetic`;
* **dynamics models** — churn presets from
  :mod:`repro.network.dynamics`;
* **fault models** — the four adversary behaviours of
  :mod:`repro.sim.faults` (jamming, hub kill, liquidity drain,
  partition/heal), see ``docs/RESILIENCE.md``;
* **scenarios** — the compositions listed by ``repro list-scenarios``
  and documented in ``docs/SCENARIOS.md``, including the attack
  scenarios that carry resilience metrics.

Every builder here is a thin, documented adapter from the registry
calling convention (``rng`` first, keyword parameters from
:class:`~repro.scenarios.registry.ParamSpec` binding) onto the
underlying library function.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from pathlib import Path

from repro.network.channel import NodeId
from repro.network.dynamics import CHURN_PRESETS, ChannelEvent, ChurnPreset, churn_events_for
from repro.network.feemarket import FeeMarketController, assign_market_policies
from repro.network.graph import ChannelGraph
from repro.network.topology import (
    barabasi_albert_edges,
    build_channel_graph,
    lightning_like_topology,
    lognormal_sampler,
    ripple_like_topology,
    testbed_topology,
)
from repro.scenarios.loaders import load_snapshot
from repro.scenarios.registry import (
    EvalMatrix,
    ParamSpec,
    register_dynamics,
    register_fault,
    register_scenario,
    register_topology,
    register_workload,
)
from repro.sim.faults import (
    HubKillSpec,
    JammingSpec,
    LiquidityDrainSpec,
    PartitionSpec,
)
from repro.traces.distributions import EmpiricalValueDistribution
from repro.traces.generators import (
    generate_lightning_workload,
    generate_ripple_workload,
    stream_lightning_workload,
)
from repro.traces.synthetic import (
    generate_bursty_workload,
    generate_diurnal_workload,
    generate_hotspot_workload,
    generate_mixed_workload,
)
from repro.traces.workload import Workload, WorkloadStream

#: Bundled snapshot files shipped with the package.
DATA_DIR = Path(__file__).parent / "data"
RIPPLE_SNAPSHOT_CSV = DATA_DIR / "ripple_snapshot.csv"
LIGHTNING_SNAPSHOT_JSON = DATA_DIR / "lightning_snapshot.json"

_TRANSACTIONS = ParamSpec(
    "transactions", int, 300, "number of payments to generate"
)


# --------------------------------------------------------------------------
# Topology sources
# --------------------------------------------------------------------------


def _build_ripple_synthetic(
    rng: random.Random, nodes: int, edges: int, capacity_median: float
) -> ChannelGraph:
    """Ripple-like synthetic topology (preferential attachment, evened funds)."""
    return ripple_like_topology(
        rng, n_nodes=nodes, n_edges=edges, capacity_median=capacity_median
    )


def _build_lightning_synthetic(
    rng: random.Random, nodes: int, edges: int, capacity_median: float
) -> ChannelGraph:
    """Lightning-like synthetic topology (skewed degrees and fund splits)."""
    return lightning_like_topology(
        rng, n_nodes=nodes, n_edges=edges, capacity_median=capacity_median
    )


def _build_testbed_smallworld(
    rng: random.Random, nodes: int, ring_neighbors: int, rewire_beta: float
) -> ChannelGraph:
    """The §5.2 Watts–Strogatz testbed network (half one-sided channels)."""
    return testbed_topology(
        rng, n_nodes=nodes, ring_neighbors=ring_neighbors, rewire_beta=rewire_beta
    )


def _build_ba_scale(
    rng: random.Random, nodes: int, attach: int, capacity_median: float
) -> ChannelGraph:
    """10k-class Barabási–Albert PCN: heavy-tailed degrees, evened funds.

    The scale substrate for the churn scenarios: pure preferential
    attachment (``attach`` edges per arriving node) with log-normal
    channel funds split evenly — big enough to make per-event topology
    rebuilds measurable, structurally similar to real PCN crawls.
    """
    edges = barabasi_albert_edges(nodes, attach, rng)
    sampler = lognormal_sampler(2.0 * capacity_median, 1.2)
    return build_channel_graph(edges, sampler, rng, balanced=True)


def _build_lightning_xl(
    rng: random.Random, path: str, nodes: int, attach: int
) -> ChannelGraph:
    """The bundled Lightning snapshot grown to ``nodes`` by attachment.

    Loads the snapshot, then adds nodes one at a time, each opening
    ``attach`` channels to degree-proportionally sampled existing nodes
    — the growth process behind real PCN degree distributions — with
    capacities resampled from the snapshot's own empirical capacity
    list and a random directional split (the snapshot's crawled-skew
    convention).  The result keeps the snapshot's capacity scale and
    degree shape at 10k-node size.
    """
    graph = load_snapshot(path)
    if graph.num_nodes() >= nodes:
        return graph
    capacities = [
        channel.total_capacity() for channel in graph.channels()
    ]
    repeated: list[NodeId] = []
    for channel in graph.channels():
        repeated.extend((channel.a, channel.b))
    # Tiny snapshots can offer fewer distinct endpoints than ``attach``;
    # bound each draw so the sampler cannot spin forever.  The distinct
    # count is tracked incrementally (it only ever grows) rather than
    # recomputed per added node, which would make the build O(n * E).
    distinct = len(set(repeated))
    next_id = 1 + max(
        (node for node in graph.nodes if isinstance(node, int)), default=-1
    )
    for _ in range(nodes - graph.num_nodes()):
        new_node = next_id
        next_id += 1
        targets: set[NodeId] = set()
        wanted = min(attach, distinct)
        while len(targets) < wanted:
            targets.add(rng.choice(repeated))
        distinct += 1  # the new node becomes an attachment candidate
        for target in sorted(targets, key=repr):
            total = rng.choice(capacities)
            fraction = rng.random()
            graph.add_channel(
                new_node,
                target,
                total * fraction,
                total * (1.0 - fraction),
            )
            repeated.extend((new_node, target))
    return graph


def _load_snapshot_topology(
    rng: random.Random, path: str, scale: float
) -> ChannelGraph:
    """Load a CSV/JSON snapshot; ``scale`` multiplies all balances.

    ``rng`` is unused (snapshots are deterministic) but kept for the
    uniform topology-builder signature.
    """
    graph = load_snapshot(path)
    if scale != 1.0:
        graph.scale_balances(scale)
    return graph


register_topology(
    "ripple-synthetic",
    _build_ripple_synthetic,
    "Ripple-like generator: heavy-tailed degrees, evened funds (USD)",
    params=(
        ParamSpec("nodes", int, 150, "node count"),
        ParamSpec("edges", int, 1_400, "edge count (sets average degree)"),
        ParamSpec(
            "capacity_median", float, 250.0, "median directional balance (USD)"
        ),
    ),
)

register_topology(
    "lightning-synthetic",
    _build_lightning_synthetic,
    "Lightning-like generator: heavy-tailed degrees, skewed splits (satoshi)",
    params=(
        ParamSpec("nodes", int, 150, "node count"),
        ParamSpec("edges", int, 2_150, "channel count (sets average degree)"),
        ParamSpec(
            "capacity_median", float, 500_000.0, "median channel capacity (sat)"
        ),
    ),
)

register_topology(
    "testbed-smallworld",
    _build_testbed_smallworld,
    "Watts-Strogatz testbed network of §5.2 (half the channels one-sided)",
    params=(
        ParamSpec("nodes", int, 50, "node count"),
        ParamSpec("ring_neighbors", int, 6, "ring degree k (even)"),
        ParamSpec("rewire_beta", float, 0.3, "rewiring probability"),
    ),
)

register_topology(
    "ba-scale",
    _build_ba_scale,
    "large Barabási–Albert generator for the 10k-node scale scenarios",
    params=(
        ParamSpec("nodes", int, 10_000, "node count"),
        ParamSpec("attach", int, 2, "edges per arriving node (BA m)"),
        ParamSpec(
            "capacity_median", float, 500.0, "median directional balance"
        ),
    ),
)

register_topology(
    "lightning-xl",
    _build_lightning_xl,
    "bundled Lightning snapshot grown to 10k nodes by preferential "
    "attachment (capacities resampled from the snapshot)",
    params=(
        ParamSpec(
            "path", str, str(LIGHTNING_SNAPSHOT_JSON), "snapshot file path"
        ),
        ParamSpec("nodes", int, 10_000, "target node count after growth"),
        ParamSpec("attach", int, 3, "channels per added node"),
    ),
)

register_topology(
    "ripple-snapshot",
    _load_snapshot_topology,
    "CSV snapshot loader, Ripple-style per-direction balances "
    "(bundled 96-node crawl by default)",
    params=(
        ParamSpec("path", str, str(RIPPLE_SNAPSHOT_CSV), "snapshot file path"),
        ParamSpec("scale", float, 1.0, "multiply all balances"),
    ),
)

register_topology(
    "lightning-snapshot",
    _load_snapshot_topology,
    "JSON snapshot loader, Lightning-style capacities split evenly "
    "(bundled 96-node snapshot by default)",
    params=(
        ParamSpec(
            "path", str, str(LIGHTNING_SNAPSHOT_JSON), "snapshot file path"
        ),
        ParamSpec("scale", float, 1.0, "multiply all balances"),
    ),
)


# --------------------------------------------------------------------------
# Workload generators
# --------------------------------------------------------------------------


def _build_ripple_trace(
    rng: random.Random, nodes: Sequence[NodeId], transactions: int
) -> Workload:
    """The §4.1 Ripple workload: calibrated USD sizes, recurrent pairs."""
    return generate_ripple_workload(rng, nodes, transactions)


def _build_lightning_trace(
    rng: random.Random, nodes: Sequence[NodeId], transactions: int
) -> Workload:
    """The §4.1 Lightning workload: Bitcoin-calibrated satoshi sizes."""
    return generate_lightning_workload(rng, nodes, transactions)


def _build_bursty(
    rng: random.Random,
    nodes: Sequence[NodeId],
    transactions: int,
    bursts_per_day: float,
    mean_burst_size: float,
    intra_burst_gap: float,
) -> Workload:
    """Compound-Poisson payment bursts on recurring pairs."""
    return generate_bursty_workload(
        rng,
        nodes,
        transactions,
        bursts_per_day=bursts_per_day,
        mean_burst_size=mean_burst_size,
        intra_burst_gap=intra_burst_gap,
    )


def _build_diurnal(
    rng: random.Random,
    nodes: Sequence[NodeId],
    transactions: int,
    peak_to_trough: float,
    peak_hour: float,
) -> Workload:
    """Sinusoidal daily arrival-rate profile (inhomogeneous Poisson)."""
    return generate_diurnal_workload(
        rng,
        nodes,
        transactions,
        peak_to_trough=peak_to_trough,
        peak_hour=peak_hour,
    )


def _build_hotspot(
    rng: random.Random,
    nodes: Sequence[NodeId],
    transactions: int,
    hotspot_count: int,
    hotspot_share: float,
) -> Workload:
    """Many-to-one drain into a few hotspot receivers."""
    return generate_hotspot_workload(
        rng,
        nodes,
        transactions,
        hotspot_count=hotspot_count,
        hotspot_share=hotspot_share,
    )


def _build_lightning_stream(
    rng: random.Random,
    nodes: Sequence[NodeId],
    transactions: int,
    transactions_per_day: float,
    values_csv: str,
) -> WorkloadStream:
    """Trace-scale Lightning workload as a re-streamable stream.

    Never materializes the transaction list: the builder draws one
    64-bit sub-seed from the scenario RNG and returns a
    :class:`WorkloadStream` whose every ``iter()`` replays the generator
    from a fresh ``random.Random(sub_seed)`` — so each routing scheme in
    a comparison sees the identical payment sequence while peak
    residency stays O(engine lookahead window), not O(transactions).

    ``values_csv`` (optional) swaps the Bitcoin-calibrated size mixture
    for an :class:`EmpiricalValueDistribution` sampled by inverse CDF
    from a measured payment-values CSV (first column, header tolerated).
    """
    sizes = EmpiricalValueDistribution.from_csv(values_csv) if values_csv else None
    node_list = list(nodes)
    sub_seed = rng.getrandbits(64)

    def source():
        return stream_lightning_workload(
            random.Random(sub_seed),
            node_list,
            transactions,
            transactions_per_day=transactions_per_day,
            sizes=sizes,
        )

    return WorkloadStream(source, length=transactions)


def _build_mice_elephant(
    rng: random.Random,
    nodes: Sequence[NodeId],
    transactions: int,
    mice_fraction: float,
    mice_median: float,
    elephant_median: float,
) -> Workload:
    """Explicit mice-elephant mixture with a configurable split."""
    return generate_mixed_workload(
        rng,
        nodes,
        transactions,
        mice_fraction=mice_fraction,
        mice_median=mice_median,
        elephant_median=elephant_median,
    )


register_workload(
    "ripple-trace",
    _build_ripple_trace,
    "paper's Ripple workload: calibrated USD sizes, recurrent pairs (§4.1)",
    params=(_TRANSACTIONS,),
)

register_workload(
    "lightning-trace",
    _build_lightning_trace,
    "paper's Lightning workload: Bitcoin-calibrated satoshi sizes (§4.1)",
    params=(_TRANSACTIONS,),
)

register_workload(
    "bursty",
    _build_bursty,
    "compound-Poisson bursts: sessions of rapid payments on one pair",
    params=(
        _TRANSACTIONS,
        ParamSpec("bursts_per_day", float, 400.0, "session arrival rate"),
        ParamSpec("mean_burst_size", float, 5.0, "mean payments per session"),
        ParamSpec(
            "intra_burst_gap", float, 2.0, "mean seconds between burst payments"
        ),
    ),
)

register_workload(
    "diurnal",
    _build_diurnal,
    "sinusoidal daily rhythm: rush-hour peaks, quiet recovery windows",
    params=(
        _TRANSACTIONS,
        ParamSpec("peak_to_trough", float, 4.0, "peak/trough rate ratio"),
        ParamSpec("peak_hour", float, 14.0, "hour of day with peak rate"),
    ),
)

register_workload(
    "hotspot",
    _build_hotspot,
    "hotspot receivers: a configurable share of payments drains into "
    "a few merchant nodes",
    params=(
        _TRANSACTIONS,
        ParamSpec("hotspot_count", int, 4, "number of hotspot receivers"),
        ParamSpec(
            "hotspot_share", float, 0.6, "fraction of payments redirected"
        ),
    ),
)

register_workload(
    "lightning-stream",
    _build_lightning_stream,
    "streaming Lightning trace workload: the §4.1 generator as a "
    "re-streamable WorkloadStream (never materialized; O(window) memory), "
    "optionally sized from a measured payment-values CSV",
    params=(
        ParamSpec("transactions", int, 1_000_000, "number of payments to stream"),
        ParamSpec(
            "transactions_per_day",
            float,
            1_000_000.0,
            "arrival rate (default packs the whole stream into one day)",
        ),
        ParamSpec(
            "values_csv",
            str,
            "",
            "optional CSV of measured payment values for the empirical "
            "size distribution (empty = Bitcoin-calibrated mixture)",
        ),
    ),
)

register_workload(
    "mice-elephant",
    _build_mice_elephant,
    "explicit mice-elephant mixture with a configurable split and size gap",
    params=(
        _TRANSACTIONS,
        ParamSpec("mice_fraction", float, 0.9, "fraction of payments that are mice"),
        ParamSpec("mice_median", float, 5.0, "median mouse size"),
        ParamSpec("elephant_median", float, 2_000.0, "median elephant size"),
    ),
)


# --------------------------------------------------------------------------
# Dynamics models
# --------------------------------------------------------------------------


def _build_churn_preset(
    rng: random.Random, graph: ChannelGraph, duration_seconds: float, preset: str
) -> list[ChannelEvent]:
    """Churn events from a named :data:`CHURN_PRESETS` intensity."""
    return churn_events_for(graph, rng, duration_seconds, preset=preset)


def _build_churn_custom(
    rng: random.Random,
    graph: ChannelGraph,
    duration_seconds: float,
    opens_per_hour: float,
    closes_per_hour: float,
    capacity_median: float,
) -> list[ChannelEvent]:
    """Churn events from explicit open/close rates."""
    preset = ChurnPreset(
        name="custom",
        description="explicit rates",
        opens_per_hour=opens_per_hour,
        closes_per_hour=closes_per_hour,
        capacity_median=capacity_median,
    )
    return churn_events_for(graph, rng, duration_seconds, preset=preset)


register_dynamics(
    "churn",
    _build_churn_preset,
    "Poisson open/close churn from a named preset "
    f"({', '.join(sorted(CHURN_PRESETS))}); gossip-refreshed routers",
    params=(
        ParamSpec("preset", str, "hourly", "one of the CHURN_PRESETS names"),
    ),
)

register_dynamics(
    "churn-custom",
    _build_churn_custom,
    "Poisson open/close churn with explicit hourly rates",
    params=(
        ParamSpec("opens_per_hour", float, 1.0, "channel-open rate"),
        ParamSpec("closes_per_hour", float, 1.0, "channel-close rate"),
        ParamSpec(
            "capacity_median", float, 500.0, "median funds of new channels"
        ),
    ),
)


def _build_fee_market(
    rng: random.Random,
    graph: ChannelGraph,
    duration_seconds: float,
    initial_rate: float,
    base_fee: float,
    paper_mix: int,
    hubs: int,
    min_rate: float,
    max_rate: float,
    sensitivity: float,
    decay: float,
) -> list[ChannelEvent]:
    """BOLT #7 fee market: priced directions plus a load-responsive
    repricing controller ticked on the gossip cadence.

    Unlike churn, this dynamics model emits no on-chain events — it
    installs :class:`~repro.network.fees.ChannelPolicy` records on every
    channel direction (flipping the run into policy-aware, fee-compounded
    routing) and attaches a
    :class:`~repro.network.feemarket.FeeMarketController` to the graph so
    :class:`~repro.network.dynamics.GossipSchedule` reprices from observed
    load between gossip periods.
    """
    assign_market_policies(
        graph,
        rng,
        base_fee=base_fee,
        initial_rate=initial_rate,
        paper_mix=bool(paper_mix),
    )
    graph.fee_controller = FeeMarketController(
        hubs=hubs,
        min_rate=min_rate,
        max_rate=max_rate,
        sensitivity=sensitivity,
        decay=decay,
    )
    return []


register_dynamics(
    "fee-market",
    _build_fee_market,
    "BOLT #7 channel policies with load-responsive fee repricing: every "
    "direction is priced, and the hubs highest-degree nodes (0 = all) "
    "reprice each gossip period by rate*(decay + sensitivity*utilization), "
    "clamped to [min_rate, max_rate]",
    params=(
        ParamSpec(
            "initial_rate", float, 0.005, "starting proportional fee rate"
        ),
        ParamSpec("base_fee", float, 0.0, "flat per-hop base fee"),
        ParamSpec(
            "paper_mix",
            int,
            0,
            "1 = draw initial rates with the Fig-9 two-band mix "
            "(90% in [0.1%,1%), 10% in [1%,10%)) instead of initial_rate",
        ),
        ParamSpec(
            "hubs", int, 0, "number of repricing nodes by degree (0 = all)"
        ),
        ParamSpec("min_rate", float, 0.001, "repricing floor"),
        ParamSpec("max_rate", float, 0.10, "repricing ceiling"),
        ParamSpec(
            "sensitivity", float, 4.0, "rate multiplier per unit utilization"
        ),
        ParamSpec(
            "decay", float, 0.9, "idle-channel rate decay factor per tick"
        ),
    ),
)


# --------------------------------------------------------------------------
# Fault models (docs/RESILIENCE.md)
# --------------------------------------------------------------------------


def _build_fault_jamming(
    channels: int,
    fraction: float,
    start_frac: float,
    duration_frac: float,
    jam_hold_time: float,
    samples: int,
) -> JammingSpec:
    """Channel jamming: adversary escrow on max-betweenness channels."""
    return JammingSpec(
        channels=channels,
        fraction=fraction,
        start_frac=start_frac,
        duration_frac=duration_frac,
        jam_hold_time=jam_hold_time,
        samples=samples,
    )


def _build_fault_hub_kill(hubs: int, by: str, start_frac: float) -> HubKillSpec:
    """Targeted hub failure: force-close the top hubs' channels."""
    return HubKillSpec(hubs=hubs, by=by, start_frac=start_frac)


def _build_fault_liquidity_drain(
    channels: int,
    fraction: float,
    start_frac: float,
    duration_frac: float,
    interval: float,
) -> LiquidityDrainSpec:
    """Liquidity drain: periodic floods unbalancing the hottest channels."""
    return LiquidityDrainSpec(
        channels=channels,
        fraction=fraction,
        start_frac=start_frac,
        duration_frac=duration_frac,
        interval=interval,
    )


def _build_fault_partition(
    fraction: float, start_frac: float, heal_frac: float
) -> PartitionSpec:
    """Partition/heal wave: force-close a graph cut, then reopen it."""
    return PartitionSpec(
        fraction=fraction, start_frac=start_frac, heal_frac=heal_frac
    )


register_fault(
    "jamming",
    _build_fault_jamming,
    "adversary HTLCs escrow a fraction of the highest-betweenness "
    "channels' balance in never-settling waves",
    params=(
        ParamSpec("channels", int, 8, "number of channels to jam"),
        ParamSpec(
            "fraction", float, 0.9, "share of available balance per jam"
        ),
        ParamSpec(
            "start_frac", float, 0.25, "attack start as a horizon fraction"
        ),
        ParamSpec(
            "duration_frac", float, 0.5, "attack length as a horizon fraction"
        ),
        ParamSpec(
            "jam_hold_time", float, 600.0, "seconds each jam wave is held"
        ),
        ParamSpec(
            "samples", int, 64, "BFS sources for betweenness approximation"
        ),
    ),
)

register_fault(
    "hub-kill",
    _build_fault_hub_kill,
    "force-close every channel of the top-k degree/capacity hubs mid-run "
    "(permanent damage: no heal, no recovery half-life)",
    params=(
        ParamSpec("hubs", int, 3, "number of hub nodes to kill"),
        ParamSpec("by", str, "degree", "hub ranking: 'degree' or 'capacity'"),
        ParamSpec(
            "start_frac", float, 0.3, "attack start as a horizon fraction"
        ),
    ),
)

register_fault(
    "liquidity-drain",
    _build_fault_liquidity_drain,
    "colluding senders periodically push a fraction of the richest "
    "direction across the highest-capacity channels, unbalancing them",
    params=(
        ParamSpec("channels", int, 10, "number of channels to drain"),
        ParamSpec(
            "fraction", float, 0.5, "share of available balance per burst"
        ),
        ParamSpec(
            "start_frac", float, 0.25, "attack start as a horizon fraction"
        ),
        ParamSpec(
            "duration_frac", float, 0.5, "attack length as a horizon fraction"
        ),
        ParamSpec("interval", float, 600.0, "seconds between drain bursts"),
    ),
)

register_fault(
    "partition",
    _build_fault_partition,
    "force-close the cut around a BFS region of the graph, then reopen "
    "it after a heal delay (close and open both gossip-batched)",
    params=(
        ParamSpec(
            "fraction", float, 0.3, "share of nodes inside the partition"
        ),
        ParamSpec(
            "start_frac", float, 0.3, "attack start as a horizon fraction"
        ),
        ParamSpec(
            "heal_frac", float, 0.3, "heal delay as a horizon fraction"
        ),
    ),
)


# --------------------------------------------------------------------------
# Scenarios
# --------------------------------------------------------------------------

register_scenario(
    "ripple-default",
    "benchmark-scale Ripple network under the paper's trace workload",
    topology="ripple-synthetic",
    workload="ripple-trace",
    figure="Figs 6a/7a/8 (benchmark scale)",
    eval_matrix=EvalMatrix(report=True),
)

register_scenario(
    "lightning-default",
    "benchmark-scale Lightning network under the paper's trace workload",
    topology="lightning-synthetic",
    workload="lightning-trace",
    figure="Figs 6b/7b (benchmark scale)",
    eval_matrix=EvalMatrix(report=True),
)

register_scenario(
    "ripple-snapshot",
    "bundled 96-node Ripple-style CSV snapshot under the trace workload",
    topology="ripple-snapshot",
    workload="ripple-trace",
    figure="Fig 6a (snapshot-loaded topology)",
    eval_matrix=EvalMatrix(report=True, smoke=True),
)

register_scenario(
    "lightning-snapshot",
    "bundled 96-node Lightning-style JSON snapshot under the trace workload",
    topology="lightning-snapshot",
    workload="lightning-trace",
    figure="Fig 6b (snapshot-loaded topology)",
    eval_matrix=EvalMatrix(report=True, smoke=True),
)

register_scenario(
    "ripple-bursty",
    "Ripple network under compound-Poisson payment bursts",
    topology="ripple-synthetic",
    workload="bursty",
)

register_scenario(
    "lightning-diurnal",
    "snapshot-loaded Lightning network under a day/night rate rhythm",
    topology="lightning-snapshot",
    workload="diurnal",
)

register_scenario(
    "hotspot-drain",
    "Ripple network with 60% of payments draining into 4 hotspot receivers",
    topology="ripple-synthetic",
    workload="hotspot",
)

register_scenario(
    "elephant-heavy",
    "Ripple network where 30% of payments are elephants (vs the paper's 10%)",
    topology="ripple-synthetic",
    workload="mice-elephant",
    workload_params={"mice_fraction": 0.7},
    figure="Fig 10 regime (threshold sensitivity)",
)

register_scenario(
    "ripple-churn",
    "Ripple network with hourly channel churn gossiped to routers",
    topology="ripple-synthetic",
    workload="ripple-trace",
    dynamics="churn",
    dynamics_params={"preset": "hourly"},
)

register_scenario(
    "testbed-smallworld",
    "Watts-Strogatz testbed topology under a mice-elephant mixture",
    topology="testbed-smallworld",
    workload="mice-elephant",
    workload_params={"mice_median": 20.0, "elephant_median": 600.0},
    figure="Figs 12/13 topology (§5.2)",
)

# ---- Concurrency scenarios (engine="concurrent", docs/CONCURRENCY.md) ----

register_scenario(
    "payment-storm",
    "chunky payments on a tight synthetic Ripple network, arrivals "
    "compressed 300x: in-flight holds contend, retries queue, success "
    "degrades and p95 latency rises with offered load",
    topology="ripple-synthetic",
    workload="mice-elephant",
    topology_params={"nodes": 60, "edges": 200, "capacity_median": 120.0},
    workload_params={
        "mice_fraction": 1.0,
        "mice_median": 60.0,
        "elephant_median": 3_000.0,
    },
    engine="concurrent",
    engine_params={
        "load": 300.0,
        "hop_latency": 2.0,
        "timeout": 120.0,
        "max_retries": 5,
        "retry_delay": 6.0,
    },
    eval_matrix=EvalMatrix(report=True, smoke=True),
)

register_scenario(
    "timeout-stress",
    "synthetic Ripple network under an aggressive hold timeout: any "
    "payment whose paths exceed 2 hops expires in flight "
    "(2 * 0.25 s/hop * hops > 1 s)",
    topology="ripple-synthetic",
    workload="ripple-trace",
    engine="concurrent",
    engine_params={
        "load": 50.0,
        "hop_latency": 0.25,
        "timeout": 1.0,
        "max_retries": 0,
    },
)

register_scenario(
    "mpp-storm",
    "payment-storm topology with an elephant-heavy mixture and "
    "multi-part payments on: elephants fan out into up to 4 parts that "
    "escrow independently and settle all-or-nothing at a shared "
    "deadline (sweep mpp.split / mpp.max_parts to compare policies, "
    "docs/CONCURRENCY.md#multi-part-payments)",
    topology="ripple-synthetic",
    workload="mice-elephant",
    topology_params={"nodes": 60, "edges": 200, "capacity_median": 120.0},
    workload_params={
        "mice_fraction": 0.7,
        "mice_median": 40.0,
        "elephant_median": 400.0,
    },
    engine="concurrent",
    engine_params={
        "load": 300.0,
        "hop_latency": 2.0,
        "timeout": 120.0,
        "max_retries": 5,
        "retry_delay": 6.0,
    },
    mpp_params={
        "max_parts": 4,
        "split": "equal",
        "deadline": 60.0,
        "part_retries": 1,
        "part_retry_delay": 3.0,
    },
    eval_matrix=EvalMatrix(report=True),
)

# ---- Scale scenarios (10k nodes, incremental topology maintenance) ----

register_scenario(
    "scale-churn",
    "10k-node Barabási–Albert network under heavy channel churn: "
    "~300 opens/hour and ~300 close attempts/hour, each on a uniform "
    "node pair, so nearly every close names no channel and is refused: "
    "the stress case for incremental compact-topology maintenance and "
    "selective routing-table invalidation (see "
    "benchmarks/test_bench_churn.py)",
    topology="ba-scale",
    workload="mice-elephant",
    workload_params={"mice_median": 20.0, "elephant_median": 1_500.0},
    dynamics="churn-custom",
    dynamics_params={
        "opens_per_hour": 300.0,
        "closes_per_hour": 300.0,
        "capacity_median": 800.0,
    },
)

register_scenario(
    "lightning-xl",
    "the bundled Lightning snapshot grown to 10k nodes by preferential "
    "attachment, under the paper's Lightning trace workload — the pure "
    "scale scenario (run it on either engine via --engine)",
    topology="lightning-xl",
    workload="lightning-trace",
)

register_scenario(
    "lightning-hotload",
    "bundled Lightning snapshot with arrivals compressed 200x: the "
    "paper's trace workload under heavy concurrent traffic",
    topology="lightning-snapshot",
    workload="lightning-trace",
    engine="concurrent",
    engine_params={
        "load": 200.0,
        "hop_latency": 0.3,
        "timeout": 20.0,
        "max_retries": 2,
        "retry_delay": 1.0,
    },
)

register_scenario(
    "lightning-day",
    "one full day of Lightning traffic (~1M payments) replayed through "
    "the concurrent engine in bounded memory: the workload arrives as a "
    "re-streamable WorkloadStream, the engine keeps only its lookahead "
    "window of pending payments resident, and metrics fold into the "
    "streaming accumulator — the store checkpoints each completed "
    "scheme, so a killed run resumes where it left off "
    "(docs/SCENARIOS.md#streaming)",
    topology="lightning-snapshot",
    workload="lightning-stream",
    engine="concurrent",
    engine_params={
        "load": 1.0,
        "hop_latency": 0.3,
        "timeout": 20.0,
        "max_retries": 2,
        "retry_delay": 1.0,
    },
)

# ---- Attack scenarios (fault injection, docs/RESILIENCE.md) ----

register_scenario(
    "jam-hubs",
    "10k-node Barabási–Albert network with the 12 highest-betweenness "
    "channels jammed in never-settling waves over the middle half of "
    "the trace: measures success-under-attack and adversary-captured "
    "escrow per scheme",
    topology="ba-scale",
    workload="mice-elephant",
    workload_params={"mice_median": 20.0, "elephant_median": 1_500.0},
    faults="jamming",
    fault_params={"channels": 12, "fraction": 0.95},
)

register_scenario(
    "hub-kill-xl",
    "the 10k-node grown Lightning snapshot with its top-5 degree hubs "
    "force-closed mid-run — permanent damage, so the resilience delta "
    "isolates how much each scheme leaned on the hubs",
    topology="lightning-xl",
    workload="lightning-trace",
    faults="hub-kill",
    fault_params={"hubs": 5},
)

register_scenario(
    "liquidity-drain-storm",
    "10k-node Barabási–Albert network where colluding senders drain the "
    "16 highest-capacity channels while hotspot traffic runs compressed "
    "100x on the concurrent engine: unbalanced hot channels meet "
    "in-flight contention",
    topology="ba-scale",
    workload="hotspot",
    faults="liquidity-drain",
    fault_params={"channels": 16, "fraction": 0.6},
    engine="concurrent",
    engine_params={
        "load": 100.0,
        "hop_latency": 0.3,
        "timeout": 20.0,
        "max_retries": 2,
        "retry_delay": 1.0,
    },
)

register_scenario(
    "partition-heal-wave",
    "10k-node Barabási–Albert network under hourly churn whose cut "
    "around a 30% BFS region force-closes mid-run and reopens later: "
    "the recovery-half-life benchmark for gossip-driven re-routing",
    topology="ba-scale",
    workload="mice-elephant",
    workload_params={"mice_median": 20.0, "elephant_median": 1_500.0},
    dynamics="churn-custom",
    dynamics_params={
        "opens_per_hour": 30.0,
        "closes_per_hour": 30.0,
        "capacity_median": 800.0,
    },
    faults="partition",
)

register_scenario(
    "ripple-jammed",
    "benchmark-scale Ripple network with its 8 highest-betweenness "
    "channels jammed — the report-matrix resilience scenario (full "
    "reports render the resilience tables from it)",
    topology="ripple-synthetic",
    workload="ripple-trace",
    faults="jamming",
    eval_matrix=EvalMatrix(report=True),
)

# ---- Fee-market scenarios (BOLT #7 policies, docs/SCENARIOS.md) ----

register_scenario(
    "fee-market",
    "benchmark-scale Ripple network where every channel direction "
    "charges BOLT #7 fees and every node reprices from observed load "
    "each gossip period: the dynamic revenue-vs-success study behind "
    "the fee tables (fee_paid_total, fee_p50, hub_revenue)",
    topology="ripple-synthetic",
    workload="ripple-trace",
    dynamics="fee-market",
    figure="Fig 9 (§5.1), made dynamic",
    eval_matrix=EvalMatrix(report=True),
)

register_scenario(
    "hub-pricing",
    "bundled Lightning snapshot where only the 6 highest-degree hubs "
    "reprice — aggressively (sensitivity 8) — while the rest of the "
    "network keeps cheap static fees: measures how much traffic and "
    "revenue monopolistic hubs can capture from each scheme",
    topology="lightning-snapshot",
    workload="lightning-trace",
    dynamics="fee-market",
    dynamics_params={
        "hubs": 6,
        "initial_rate": 0.002,
        "sensitivity": 8.0,
        "max_rate": 0.10,
    },
    figure="Fig 9 (§5.1), hub variant",
    eval_matrix=EvalMatrix(report=True),
)

register_scenario(
    "ripple-fees",
    "bundled Ripple snapshot priced with the paper's Fig-9 two-band fee "
    "mix (90% of directions in [0.1%,1%), 10% in [1%,10%)) under gentle "
    "repricing: the closest dynamic analogue of the paper's static fee "
    "experiment",
    topology="ripple-snapshot",
    workload="ripple-trace",
    dynamics="fee-market",
    dynamics_params={
        "paper_mix": 1,
        "sensitivity": 1.0,
        "decay": 0.97,
    },
    figure="Fig 9 (§5.1)",
    eval_matrix=EvalMatrix(report=True),
)
