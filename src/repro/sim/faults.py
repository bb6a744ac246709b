"""Adversarial fault injection for the payment-network simulators.

The source paper evaluates routing schemes only under benign workloads;
real off-chain networks additionally face *adversarial* load.  This
module turns four well-known PCN attack families into deterministic,
seed-driven event streams that ride the same
:class:`~repro.network.dynamics.ChannelEvent` substrate as churn — so
they compose with both engines (sequential interleaving and the
discrete-event concurrent engine) without either engine knowing the
attack's internals:

* **channel jamming** (:class:`JammingSpec`) — adversary-held HTLCs
  that occupy escrow on the highest-betweenness channels for
  ``jam_hold_time`` and never settle (JAM/UNJAM waves);
* **targeted hub closes** (:class:`HubKillSpec`) — force-close every
  channel of the top-k degree/capacity nodes mid-run;
* **liquidity-drain floods** (:class:`LiquidityDrainSpec`) — periodic
  max-value bursts from colluding senders that unbalance the
  highest-capacity channels (DRAIN events);
* **partition/heal waves** (:class:`PartitionSpec`) — correlated
  force-close of a graph cut followed by a coordinated reopen,
  exercising selective routing-cache invalidation.

Each spec is a frozen dataclass validated eagerly at construction and
compiled (:meth:`FaultSpec.compile` / :func:`compile_faults`) against a
concrete graph into a :class:`FaultPlan`: the adversarial event stream
plus the attack windows and heal time the resilience metrics need.
:func:`resilience_metrics` computes the metric family — success under
attack vs. control, recovery half-life after heal, and
adversary-captured escrow — from any engine's per-transaction records.

Methodology notes live in ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import islice

from repro.network.channel import NodeId
from repro.network.dynamics import ChannelEvent, ChannelEventType
from repro.network.graph import ChannelGraph
from repro.network.paths import bfs_tree_parents

#: Sliding-window width (transactions) for the recovery-half-life
#: success-rate estimate, and the tolerance band around the pre-attack
#: baseline that counts as "recovered".
RECOVERY_WINDOW = 20
RECOVERY_EPSILON = 0.05


@dataclass(frozen=True)
class AttackWindow:
    """One ``[start, end]`` interval (trace seconds) of active attack."""

    start: float
    end: float

    def contains(self, time: float) -> bool:
        """True when ``time`` falls inside the window (inclusive)."""
        return self.start <= time <= self.end


@dataclass(frozen=True)
class FaultPlan:
    """A compiled fault: adversarial events plus the metric bookkeeping.

    ``events`` are time-ordered :class:`~repro.network.dynamics.\
ChannelEvent` instances ready to merge with churn; ``windows`` mark
    when the attack is actively degrading the network (transactions
    inside any window count as *attacked*, the rest as *control*);
    ``heal_time`` is when the network structurally recovers (``None``
    for permanent damage such as hub kills — no recovery is measured).
    """

    events: tuple[ChannelEvent, ...]
    windows: tuple[AttackWindow, ...]
    heal_time: float | None = None

    @staticmethod
    def merge(plans: Sequence["FaultPlan"]) -> "FaultPlan":
        """Combine several plans into one time-ordered composite plan."""
        events: list[ChannelEvent] = []
        windows: list[AttackWindow] = []
        heal: float | None = None
        for plan in plans:
            events.extend(plan.events)
            windows.extend(plan.windows)
            if plan.heal_time is not None:
                heal = (
                    plan.heal_time
                    if heal is None
                    else max(heal, plan.heal_time)
                )
        events.sort(key=lambda event: event.time)
        return FaultPlan(
            events=tuple(events), windows=tuple(windows), heal_time=heal
        )


def _sort_key(node: NodeId) -> tuple[str, str]:
    """A total order over mixed int/str node ids (type, then repr)."""
    return (type(node).__name__, repr(node))


def _pair_key(a: NodeId, b: NodeId) -> tuple:
    """Canonical undirected channel key with a deterministic order."""
    return tuple(sorted((a, b), key=_sort_key))


def approximate_edge_betweenness(
    graph: ChannelGraph,
    rng: random.Random,
    samples: int = 64,
) -> dict[tuple, float]:
    """Approximate edge betweenness from sampled BFS shortest-path trees.

    For each of ``samples`` source nodes (sampled without replacement),
    a BFS tree is built and each tree edge accumulates the size of the
    subtree it carries — the standard single-parent approximation of
    Brandes' accumulation, accurate enough to rank jamming targets while
    staying O(samples * (V + E)).  Deterministic for a given ``rng``
    state and graph construction order.
    """
    topology = graph.compact()
    nodes = graph.nodes
    sources = (
        rng.sample(nodes, samples) if len(nodes) > samples else list(nodes)
    )
    scores: dict[tuple, float] = {}
    for source in sources:
        # Parents in BFS discovery order: reversed, every subtree is
        # folded into its root edge before that edge is scored.
        parent = bfs_tree_parents(topology, source)
        weight = dict.fromkeys(parent, 1.0)
        for node, up in reversed(parent.items()):
            if node == source:
                continue
            key = _pair_key(up, node)
            scores[key] = scores.get(key, 0.0) + weight[node]
            weight[up] += weight[node]
    return scores


def _top_channels_by_betweenness(
    graph: ChannelGraph, rng: random.Random, count: int, samples: int
) -> list[tuple[NodeId, NodeId]]:
    """The ``count`` highest-betweenness channels, deterministically ranked."""
    scores = approximate_edge_betweenness(graph, rng, samples=samples)
    ranked = sorted(
        scores.items(), key=lambda item: (-item[1], item[0].__repr__())
    )
    return [pair for pair, _ in ranked[:count]]


def _top_channels_by_capacity(
    graph: ChannelGraph, count: int
) -> list[tuple[NodeId, NodeId]]:
    """The ``count`` highest-total-capacity channels, deterministically."""
    ranked = sorted(
        (
            (-channel.total_capacity(), _pair_key(channel.a, channel.b))
            for channel in graph.channels()
        ),
        key=lambda item: (item[0], repr(item[1])),
    )
    return [pair for _, pair in ranked[:count]]


class FaultSpec:
    """Base class of the typed fault specifications.

    Subclasses are frozen dataclasses whose ``__post_init__`` validates
    every parameter eagerly (a bad value fails at construction — e.g. at
    scenario registration — not mid-run) and whose :meth:`compile`
    deterministically lowers the spec onto a concrete graph.
    """

    def compile(
        self, graph: ChannelGraph, rng: random.Random, horizon: float
    ) -> FaultPlan:
        """Lower this spec onto ``graph`` over ``[0, horizon]`` seconds."""
        raise NotImplementedError


def _check_frac(name: str, value: float, upper: float = 1.0) -> None:
    """Raise :class:`ValueError` unless ``0 <= value <= upper``."""
    if not 0.0 <= value <= upper:
        raise ValueError(f"{name} must be in [0, {upper}], got {value}")


@dataclass(frozen=True)
class JammingSpec(FaultSpec):
    """Channel jamming: adversary escrow on max-betweenness channels.

    In waves of period ``jam_hold_time`` over the attack window, the
    adversary places a hold of ``fraction`` of the currently *available*
    balance on each direction of the ``channels`` highest-betweenness
    channels; each wave's holds are released (never settled) one period
    later — the classic HTLC-jamming capacity-denial attack.
    """

    channels: int = 8
    fraction: float = 0.9
    start_frac: float = 0.25
    duration_frac: float = 0.5
    jam_hold_time: float = 600.0
    samples: int = 64

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        _check_frac("fraction", self.fraction)
        _check_frac("start_frac", self.start_frac)
        _check_frac("duration_frac", self.duration_frac)
        if self.jam_hold_time <= 0:
            raise ValueError(
                f"jam_hold_time must be positive, got {self.jam_hold_time}"
            )

    def compile(
        self, graph: ChannelGraph, rng: random.Random, horizon: float
    ) -> FaultPlan:
        """JAM/UNJAM waves on the top-betweenness channels."""
        start = self.start_frac * horizon
        end = min(horizon, start + self.duration_frac * horizon)
        targets = _top_channels_by_betweenness(
            graph, rng, self.channels, self.samples
        )
        events: list[ChannelEvent] = []
        wave = 0
        time = start
        while time < end and targets:
            tag = f"jam-{wave}"
            for a, b in targets:
                events.append(
                    ChannelEvent(
                        time=time,
                        kind=ChannelEventType.JAM,
                        a=a,
                        b=b,
                        fraction=self.fraction,
                        tag=tag,
                    )
                )
            events.append(
                ChannelEvent(
                    time=min(time + self.jam_hold_time, end),
                    kind=ChannelEventType.UNJAM,
                    a=targets[0][0],
                    b=targets[0][1],
                    tag=tag,
                )
            )
            wave += 1
            time = start + wave * self.jam_hold_time
        events.sort(key=lambda event: event.time)
        return FaultPlan(
            events=tuple(events),
            windows=(AttackWindow(start, end),),
            heal_time=end,
        )


@dataclass(frozen=True)
class HubKillSpec(FaultSpec):
    """Targeted hub failure: force-close every channel of the top hubs.

    Ranks nodes by ``by`` (``"degree"`` or ``"capacity"`` — the summed
    total capacity of incident channels) and unilaterally closes all of
    the top ``hubs`` nodes' channels at the attack start.  The damage is
    permanent (``heal_time=None``): no recovery half-life is measured.
    """

    hubs: int = 3
    by: str = "degree"
    start_frac: float = 0.3

    def __post_init__(self) -> None:
        if self.hubs < 1:
            raise ValueError(f"hubs must be >= 1, got {self.hubs}")
        if self.by not in ("degree", "capacity"):
            raise ValueError(
                f"by must be 'degree' or 'capacity', got {self.by!r}"
            )
        _check_frac("start_frac", self.start_frac)

    def compile(
        self, graph: ChannelGraph, rng: random.Random, horizon: float
    ) -> FaultPlan:
        """Force-close the top hubs' channels at the attack start."""
        start = self.start_frac * horizon
        if self.by == "degree":
            score = {node: float(graph.degree(node)) for node in graph.nodes}
        else:
            score = {node: 0.0 for node in graph.nodes}
            for channel in graph.channels():
                score[channel.a] += channel.total_capacity()
                score[channel.b] += channel.total_capacity()
        hubs = sorted(
            graph.nodes, key=lambda node: (-score[node], _sort_key(node))
        )[: self.hubs]
        closed: set[tuple] = set()
        events: list[ChannelEvent] = []
        for hub in hubs:
            for neighbor in graph.neighbors(hub):
                pair = _pair_key(hub, neighbor)
                if pair in closed:
                    continue
                closed.add(pair)
                events.append(
                    ChannelEvent(
                        time=start,
                        kind=ChannelEventType.CLOSE,
                        a=pair[0],
                        b=pair[1],
                        force=True,
                    )
                )
        return FaultPlan(
            events=tuple(events),
            windows=(AttackWindow(start, horizon),),
            heal_time=None,
        )


@dataclass(frozen=True)
class LiquidityDrainSpec(FaultSpec):
    """Liquidity drain: periodic max-value floods unbalancing hot channels.

    Every ``interval`` seconds over the attack window, colluding senders
    push ``fraction`` of the currently available balance across each of
    the ``channels`` highest-capacity channels — draining the direction
    the initial balances mark as richer.  Total funds are conserved; the
    drained direction's sending capacity is not.
    """

    channels: int = 10
    fraction: float = 0.5
    start_frac: float = 0.25
    duration_frac: float = 0.5
    interval: float = 600.0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        _check_frac("fraction", self.fraction)
        _check_frac("start_frac", self.start_frac)
        _check_frac("duration_frac", self.duration_frac)
        if self.interval <= 0:
            raise ValueError(
                f"interval must be positive, got {self.interval}"
            )

    def compile(
        self, graph: ChannelGraph, rng: random.Random, horizon: float
    ) -> FaultPlan:
        """Periodic DRAIN bursts on the highest-capacity channels."""
        start = self.start_frac * horizon
        end = min(horizon, start + self.duration_frac * horizon)
        targets = []
        for a, b in _top_channels_by_capacity(graph, self.channels):
            # Drain from the richer side, fixed at compile time so the
            # event stream is a pure function of the built graph.
            if graph.balance(a, b) >= graph.balance(b, a):
                targets.append((a, b))
            else:
                targets.append((b, a))
        events: list[ChannelEvent] = []
        burst = 0
        time = start
        while time < end and targets:
            for src, dst in targets:
                events.append(
                    ChannelEvent(
                        time=time,
                        kind=ChannelEventType.DRAIN,
                        a=src,
                        b=dst,
                        fraction=self.fraction,
                        tag=f"drain-{burst}",
                    )
                )
            burst += 1
            time = start + burst * self.interval
        return FaultPlan(
            events=tuple(events),
            windows=(AttackWindow(start, end),),
            heal_time=end,
        )


@dataclass(frozen=True)
class PartitionSpec(FaultSpec):
    """Partition/heal wave: force-close a graph cut, then reopen it.

    Grows a BFS region of about ``fraction`` of the nodes from the
    highest-degree seed node, force-closes every channel crossing the
    cut at the attack start, and reopens those channels ``heal_frac`` of
    the horizon later with their compile-time balances (a documented
    approximation: the escrowed/settled flows between close and reopen
    are not replayed onto the reopened channels).  Exercises selective
    routing-cache invalidation on both the close and the open batch.
    """

    fraction: float = 0.3
    start_frac: float = 0.3
    heal_frac: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(
                f"fraction must be in (0, 1), got {self.fraction}"
            )
        _check_frac("start_frac", self.start_frac)
        if self.heal_frac <= 0:
            raise ValueError(
                f"heal_frac must be positive, got {self.heal_frac}"
            )

    def compile(
        self, graph: ChannelGraph, rng: random.Random, horizon: float
    ) -> FaultPlan:
        """Close the BFS-cut channels at start; reopen them at heal."""
        start = self.start_frac * horizon
        heal = min(horizon, start + self.heal_frac * horizon)
        nodes = graph.nodes
        if not nodes:
            return FaultPlan(events=(), windows=(), heal_time=None)
        seed = max(
            nodes, key=lambda node: (graph.degree(node), _sort_key(node))
        )
        region_size = max(1, int(self.fraction * len(nodes)))
        # The first ``region_size`` nodes a BFS from the seed discovers.
        region = set(
            islice(bfs_tree_parents(graph.compact(), seed), region_size)
        )
        events: list[ChannelEvent] = []
        for channel in graph.channels():
            if (channel.a in region) == (channel.b in region):
                continue
            events.append(
                ChannelEvent(
                    time=start,
                    kind=ChannelEventType.CLOSE,
                    a=channel.a,
                    b=channel.b,
                    force=True,
                )
            )
            events.append(
                ChannelEvent(
                    time=heal,
                    kind=ChannelEventType.OPEN,
                    a=channel.a,
                    b=channel.b,
                    balance_a=channel.balance_ab,
                    balance_b=channel.balance_ba,
                )
            )
        events.sort(key=lambda event: event.time)
        return FaultPlan(
            events=tuple(events),
            windows=(AttackWindow(start, heal),),
            heal_time=heal,
        )


def compile_faults(
    specs: "FaultSpec | Iterable[FaultSpec]",
    graph: ChannelGraph,
    rng: random.Random,
    horizon: float,
) -> FaultPlan:
    """Compile one or several fault specs into a merged :class:`FaultPlan`.

    Compilation is deterministic for a given ``(specs, graph, rng
    state, horizon)``; a single spec may be passed bare.  ``horizon``
    must be non-negative (it anchors every ``*_frac`` parameter).
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if isinstance(specs, FaultSpec):
        specs = (specs,)
    plans = [spec.compile(graph, rng, horizon) for spec in specs]
    if not plans:
        raise ValueError("compile_faults needs at least one FaultSpec")
    return FaultPlan.merge(plans)


def _mean_success(samples: Sequence[tuple[float, bool]]) -> float:
    """Mean success over ``(time, success)`` samples (0.0 when empty)."""
    if not samples:
        return 0.0
    return sum(1.0 for _, success in samples if success) / len(samples)


def resilience_metrics(
    times: Sequence[float],
    records: Sequence,
    plan: FaultPlan,
    adversary_escrow_seconds: float,
    horizon: float,
) -> dict[str, float]:
    """The resilience metric family for one run under a fault plan.

    ``times`` are the per-transaction trace timestamps (workload order,
    uncompressed seconds) matching ``records`` (anything with a
    ``success`` attribute, e.g.
    :class:`~repro.sim.metrics.TransactionRecord`).  Returns a dict with
    exactly the fields of :data:`repro.sim.metrics.RESILIENCE_FAMILY`:

    * ``attack_success_ratio`` — success rate of transactions inside
      any attack window;
    * ``control_success_ratio`` — success rate outside all windows;
    * ``resilience_delta`` — control minus attack (how much the attack
      costs; ~0 for a scheme that degrades gracefully);
    * ``recovery_half_life`` — seconds after ``plan.heal_time`` until a
      :data:`RECOVERY_WINDOW`-transaction sliding success rate returns
      within :data:`RECOVERY_EPSILON` of the pre-attack baseline
      (``horizon - heal_time`` when it never does; 0.0 for plans with
      no heal);
    * ``adversary_escrow`` — fund-seconds of victim capacity the
      adversary's holds occupied (trace-time units).
    """
    samples = [
        (time, record.success) for time, record in zip(times, records)
    ]
    attacked = [
        sample
        for sample in samples
        if any(window.contains(sample[0]) for window in plan.windows)
    ]
    control = [
        sample
        for sample in samples
        if not any(window.contains(sample[0]) for window in plan.windows)
    ]
    attack_ratio = _mean_success(attacked)
    control_ratio = _mean_success(control)

    recovery = 0.0
    if plan.heal_time is not None:
        heal = plan.heal_time
        first_start = min(
            (window.start for window in plan.windows), default=heal
        )
        baseline_samples = [
            sample for sample in samples if sample[0] < first_start
        ]
        baseline = (
            _mean_success(baseline_samples)
            if baseline_samples
            else control_ratio
        )
        post = [sample for sample in samples if sample[0] >= heal]
        width = min(RECOVERY_WINDOW, len(post))
        recovery = max(0.0, horizon - heal)
        if width > 0:
            for index in range(width - 1, len(post)):
                window = post[index - width + 1 : index + 1]
                rate = sum(
                    1.0 for _, success in window if success
                ) / width
                if rate >= baseline - RECOVERY_EPSILON:
                    recovery = max(0.0, post[index][0] - heal)
                    break
    return {
        "attack_success_ratio": attack_ratio,
        "control_success_ratio": control_ratio,
        "resilience_delta": control_ratio - attack_ratio,
        "recovery_half_life": recovery,
        "adversary_escrow": float(adversary_escrow_seconds),
    }
