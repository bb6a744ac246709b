"""Metrics for the trace-driven simulation (§4.1, "Metrics").

The paper's primary metrics are **success ratio** (fraction of payments
delivered), **success volume** (total delivered amount), and the **number
of probing messages**.  We additionally track payment messages, fees, and
the elephant/mice breakdown needed by the Fig 10/11 microbenchmarks.

Every engine run folds its per-payment :class:`TransactionRecord`\\ s
through one :class:`StreamingMetricsAccumulator`, whether the workload
is a list or a stream, and the fold returns the run's
:class:`SimulationResult`.  Float sums are left-to-right ``+=`` folds,
so they do not depend on how the interpreter's ``sum()`` adds floats;
quantiles are exact for list-backed runs and P² estimates for streams.

Every metric belongs to one :class:`MetricFamily`: the paper's
(:data:`BASE_FAMILY`), which every run carries, or one of the optional
:data:`FAMILIES` (concurrency, resilience, fees, MPP), which a run
carries only when its engine, fault plan, channel policies or MPP
setting produce them.  The family table is the one place that says
what a family records and what ``repro run``, ``repro sweep`` and
``repro report`` print for it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from repro.traces.workload import percentile


@dataclass(frozen=True)
class TableSpec:
    """One report table: a metric pivot with fixed display formatting.

    ``figure`` maps the table to the paper figure it reproduces
    (docs/RESULTS.md); ``chart`` also draws it as grouped bars.
    """

    slug: str
    title: str
    metric: str
    spec: str
    scale: float = 1.0
    figure: str = ""
    chart: bool = False


class Column(NamedTuple):
    """One ``repro run`` column: ``scale * metric`` formatted by ``spec``."""

    header: str
    metric: str
    spec: str
    scale: float = 1.0


class Block(NamedTuple):
    """One ``repro sweep`` series block: ``scale * metric`` per value."""

    label: str
    metric: str
    scale: float = 1.0


@dataclass(frozen=True)
class MetricFamily:
    """A set of per-run metrics and everything that shows them.

    ``fields`` are the metrics in store-record order; ``run_columns``,
    ``sweep_blocks`` and ``tables`` are what ``repro run``, ``repro
    sweep`` and ``repro report`` print for the family.  Every surface
    shows an optional family exactly where the results carry it (see
    :meth:`SimulationResult.families`), so no surface names a family.
    """

    name: str
    fields: tuple[str, ...]
    run_columns: tuple[Column, ...] = ()
    sweep_blocks: tuple[Block, ...] = ()
    tables: tuple[TableSpec, ...] = ()


_CONCURRENCY_DOC = "concurrent engine (docs/CONCURRENCY.md)"
_RESILIENCE_DOC = "fault injection (docs/RESILIENCE.md)"
_FEE_DOC = "fee market (paper Fig 9, made dynamic)"
_MPP_DOC = "multi-part payments (docs/CONCURRENCY.md)"

#: The paper's metrics (§4.1), which every run carries.  Its fields are
#: the per-run metric fields persisted to the experiment store
#: (:mod:`repro.eval.store`) and consumed by :meth:`AveragedMetrics.of`,
#: in the canonical column order of generated reports.
BASE_FAMILY = MetricFamily(
    "base",
    fields=(
        "transactions",
        "success_ratio",
        "success_volume",
        "probe_messages",
        "payment_messages",
        "fee_to_volume_percent",
        "mice_success_ratio",
        "elephant_success_ratio",
        "mice_success_volume",
        "elephant_success_volume",
        "mice_probe_messages",
        "elephant_probe_messages",
    ),
    run_columns=(
        Column("succ. ratio (%)", "success_ratio", ".1f", 100.0),
        Column("succ. volume", "success_volume", ".4g"),
        Column("probe msgs", "probe_messages", ".0f"),
        Column("fee/volume (%)", "fee_to_volume_percent", ".2f"),
    ),
    sweep_blocks=(
        Block("success ratio (%)", "success_ratio", 100.0),
        Block("succeeded volume", "success_volume"),
        Block("probe messages", "probe_messages"),
    ),
    tables=(
        TableSpec(
            "success_ratio",
            "Success ratio (%)",
            "success_ratio",
            ".2f",
            scale=100.0,
            figure="paper Fig 6 (success ratio vs capacity)",
            chart=True,
        ),
        TableSpec(
            "success_volume",
            "Succeeded volume",
            "success_volume",
            ".6g",
            figure="paper Figs 6-7 (succeeded volume)",
            chart=True,
        ),
        TableSpec(
            "probing_overhead",
            "Probing messages",
            "probe_messages",
            ".1f",
            figure="paper Fig 8 (probing overhead)",
            chart=True,
        ),
        TableSpec(
            "mice_success_volume",
            "Mice succeeded volume",
            "mice_success_volume",
            ".6g",
            figure="paper Fig 11a (mice breakdown)",
            chart=True,
        ),
        TableSpec(
            "elephant_success_volume",
            "Elephant succeeded volume",
            "elephant_success_volume",
            ".6g",
            figure="paper Fig 11a (elephant breakdown)",
            chart=True,
        ),
        TableSpec(
            "mice_probe_messages",
            "Mice probing messages",
            "mice_probe_messages",
            ".1f",
            figure="paper Fig 11b (mice probing)",
        ),
        TableSpec(
            "elephant_probe_messages",
            "Elephant probing messages",
            "elephant_probe_messages",
            ".1f",
            figure="paper Fig 11b (elephant probing)",
        ),
    ),
)

#: Alias of ``BASE_FAMILY.fields``, the fields every record carries.
METRIC_FIELDS: tuple[str, ...] = BASE_FAMILY.fields

#: Carried by concurrent-engine runs: latencies in simulated seconds,
#: over *successful* payments, engine retries and timeout failures.
CONCURRENCY_FAMILY = MetricFamily(
    "concurrency",
    fields=(
        "latency_p50",
        "latency_p95",
        "latency_mean",
        "retries_total",
        "timeout_failures",
    ),
    run_columns=(
        Column("p50 lat (s)", "latency_p50", ".2f"),
        Column("p95 lat (s)", "latency_p95", ".2f"),
        Column("retries", "retries_total", ".0f"),
        Column("timeouts", "timeout_failures", ".0f"),
    ),
    sweep_blocks=(
        Block("p95 latency (s)", "latency_p95"),
        Block("timeout failures", "timeout_failures"),
    ),
    tables=(
        TableSpec(
            "latency_p95",
            "p95 payment latency (s)",
            "latency_p95",
            ".3f",
            figure=_CONCURRENCY_DOC,
        ),
        TableSpec(
            "timeout_failures",
            "Timeout failures",
            "timeout_failures",
            ".2f",
            figure=_CONCURRENCY_DOC,
        ),
    ),
)

#: Carried by runs with a fault plan (:mod:`repro.sim.faults`): attack-
#: and control-window success rates, their difference, the seconds after
#: heal until the success rate recovers, and fund-seconds held by
#: adversary jams.
RESILIENCE_FAMILY = MetricFamily(
    "resilience",
    fields=(
        "attack_success_ratio",
        "control_success_ratio",
        "resilience_delta",
        "recovery_half_life",
        "adversary_escrow",
    ),
    run_columns=(
        Column("attacked sr (%)", "attack_success_ratio", ".1f", 100.0),
        Column("control sr (%)", "control_success_ratio", ".1f", 100.0),
        Column("delta (pp)", "resilience_delta", "+.1f", 100.0),
        Column("recovery (s)", "recovery_half_life", ".0f"),
        Column("adv. escrow", "adversary_escrow", ".3g"),
    ),
    sweep_blocks=(
        Block("attacked success ratio (%)", "attack_success_ratio", 100.0),
        Block("resilience delta (pp)", "resilience_delta", 100.0),
        Block("adversary escrow (fund-s)", "adversary_escrow"),
    ),
    tables=(
        TableSpec(
            "attack_success_ratio",
            "Success ratio under attack (%)",
            "attack_success_ratio",
            ".2f",
            scale=100.0,
            figure=_RESILIENCE_DOC,
            chart=True,
        ),
        TableSpec(
            "resilience_delta",
            "Resilience delta (pp, control − attacked)",
            "resilience_delta",
            ".2f",
            scale=100.0,
            figure=_RESILIENCE_DOC,
        ),
        TableSpec(
            "recovery_half_life",
            "Recovery half-life after heal (s)",
            "recovery_half_life",
            ".1f",
            figure=_RESILIENCE_DOC,
        ),
        TableSpec(
            "adversary_escrow",
            "Adversary-captured escrow (fund-seconds)",
            "adversary_escrow",
            ".6g",
            figure=_RESILIENCE_DOC,
        ),
    ),
)

#: Carried by policy-aware runs (BOLT #7 channel policies, see
#: :mod:`repro.network.fees`): total and median fee of successful
#: payments, and the fees pocketed by the best-earning intermediary.
FEE_FAMILY = MetricFamily(
    "fees",
    fields=("fee_paid_total", "fee_p50", "hub_revenue"),
    run_columns=(
        Column("fee paid", "fee_paid_total", ".4g"),
        Column("fee p50", "fee_p50", ".4g"),
        Column("hub revenue", "hub_revenue", ".4g"),
    ),
    sweep_blocks=(
        Block("fee paid (total)", "fee_paid_total"),
        Block("fee p50", "fee_p50"),
        Block("hub revenue", "hub_revenue"),
    ),
    tables=(
        TableSpec(
            "fee_paid_total",
            "Total fees paid by senders",
            "fee_paid_total",
            ".4f",
            figure=_FEE_DOC,
            chart=True,
        ),
        TableSpec(
            "fee_p50",
            "Median fee per successful payment",
            "fee_p50",
            ".6f",
            figure=_FEE_DOC,
        ),
        TableSpec(
            "hub_revenue",
            "Top-earning node fee revenue",
            "hub_revenue",
            ".4f",
            figure=_FEE_DOC,
        ),
    ),
)

#: Carried by MPP-enabled runs (:mod:`repro.sim.mpp`): payments split
#: into more than one part, their mean part count and success rate,
#: sibling holds refunded by the all-or-nothing abort, and the p95
#: latency of settled ones.
MPP_FAMILY = MetricFamily(
    "mpp",
    fields=(
        "mpp_payments",
        "parts_per_payment",
        "partial_release_count",
        "mpp_success_ratio",
        "mpp_latency_p95",
    ),
    run_columns=(
        Column("mpp sr (%)", "mpp_success_ratio", ".1f", 100.0),
        Column("parts/pay", "parts_per_payment", ".2f"),
        Column("part refunds", "partial_release_count", ".0f"),
    ),
    sweep_blocks=(
        Block("MPP success ratio (%)", "mpp_success_ratio", 100.0),
        Block("parts per payment", "parts_per_payment"),
        Block("partial releases", "partial_release_count"),
    ),
    tables=(
        TableSpec(
            "mpp_success_ratio",
            "Multi-part payment success ratio (%)",
            "mpp_success_ratio",
            ".2f",
            scale=100.0,
            figure=_MPP_DOC,
            chart=True,
        ),
        TableSpec(
            "parts_per_payment",
            "Parts per multi-part payment",
            "parts_per_payment",
            ".2f",
            figure=_MPP_DOC,
        ),
        TableSpec(
            "partial_release_count",
            "Sibling part holds refunded on abort",
            "partial_release_count",
            ".1f",
            figure=_MPP_DOC,
        ),
    ),
)

#: The optional families in store-record order: a record appends each
#: family it carries after :data:`METRIC_FIELDS`, so a record without a
#: family keeps the exact shape, and digest, it had before the family
#: existed.  The report lists their tables in this order too.
FAMILIES: tuple[MetricFamily, ...] = (
    CONCURRENCY_FAMILY,
    RESILIENCE_FAMILY,
    FEE_FAMILY,
    MPP_FAMILY,
)

#: The order ``repro run`` shows the families' columns in and ``repro
#: sweep`` their blocks in; both orders predate the record order.
RUN_ORDER: tuple[MetricFamily, ...] = (
    FEE_FAMILY,
    CONCURRENCY_FAMILY,
    RESILIENCE_FAMILY,
    MPP_FAMILY,
)
SWEEP_ORDER: tuple[MetricFamily, ...] = (
    CONCURRENCY_FAMILY,
    FEE_FAMILY,
    RESILIENCE_FAMILY,
    MPP_FAMILY,
)


def fee_metrics(
    fee_paid_total: float,
    fee_p50: float,
    revenue_by_node: Mapping[object, float],
) -> dict[str, float]:
    """The :data:`FEE_FAMILY` values for one policy-aware run.

    ``fee_paid_total`` and ``fee_p50`` are the fold's total and median of
    the fees senders paid for successful payments.  ``revenue_by_node``
    accumulates each intermediary's pocketed fees
    (:func:`repro.network.fees.fee_breakdown` summed over settled
    payments); ``hub_revenue`` reports the best-earning node — the
    fee-market scenarios' revenue-vs-success tradeoff axis.
    """
    return {
        "fee_paid_total": float(fee_paid_total),
        "fee_p50": float(fee_p50),
        "hub_revenue": float(max(revenue_by_node.values(), default=0.0)),
    }


@dataclass(frozen=True)
class TransactionRecord:
    """Per-transaction accounting captured by the engine.

    ``latency``, ``retries``, and ``timed_out`` are only meaningful for
    concurrent-engine runs; the sequential engine leaves them at their
    defaults (zero-cost, so its records are unchanged).  ``latency`` is
    simulated seconds from the payment's first start to its settle (or
    final failure); ``retries`` counts engine-level re-attempts beyond
    the first; ``timed_out`` marks failures caused by the hold timeout.

    ``parts`` and ``partial_releases`` are only meaningful for
    MPP-enabled runs (:mod:`repro.sim.mpp`): ``parts`` is the number of
    sub-payment parts the payment fanned out into (0 for single-shot
    payments in MPP-free runs, 1 when MPP was on but the payment did
    not split), and ``partial_releases`` counts sibling part holds
    refunded because a part failed or the shared deadline passed.
    """

    txid: int
    amount: float
    success: bool
    fee: float
    is_elephant: bool
    probe_messages: int
    payment_messages: int
    paths_used: int
    latency: float = 0.0
    retries: int = 0
    timed_out: bool = False
    parts: int = 0
    partial_releases: int = 0


class _FamilyMetric:
    """One metric of an optional family, read from the result's dict.

    Reads 0.0 when the family is absent, so every result answers every
    metric name :class:`AveragedMetrics` averages.
    """

    def __init__(self, family: str, name: str) -> None:
        self.family = family
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            return self
        return float(getattr(result, self.family).get(self.name, 0.0))


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run for one scheme.

    Built by :meth:`StreamingMetricsAccumulator.result` at the end of a
    run, or by :meth:`from_record` from a store record.  Counts are ints
    in a fresh run and floats once read back from the store.

    ``engine`` names the engine that produced the run (``"sequential"``
    or ``"concurrent"``); a concurrent run carries
    :data:`CONCURRENCY_FAMILY`.  ``resilience``, ``fees`` and ``mpp``
    hold exactly the fields of the family of that name when the run
    injected a fault plan, ran on a graph with BOLT channel policies,
    or enabled multi-part payments; otherwise they stay empty and the
    family is absent (see :meth:`families`).  Each of their metrics is
    also an attribute reading 0.0 when absent.  ``records`` holds a
    list-backed run's per-payment records in workload order; it is
    empty for a streamed run and for a stored one.
    """

    scheme: str
    engine: str = "sequential"
    transactions: float = 0.0
    succeeded: float = 0.0
    success_ratio: float = 0.0
    attempted_volume: float = 0.0
    success_volume: float = 0.0
    probe_messages: float = 0.0
    payment_messages: float = 0.0
    total_fees: float = 0.0
    #: Fig 9's metric: total fees as a percentage of delivered volume.
    fee_to_volume_percent: float = 0.0
    mice_success_ratio: float = 0.0
    elephant_success_ratio: float = 0.0
    mice_success_volume: float = 0.0
    elephant_success_volume: float = 0.0
    #: Probing spent on mice-class payments (the Fig 11b metric).
    mice_probe_messages: float = 0.0
    elephant_probe_messages: float = 0.0
    #: Latency quantiles and mean over *successful* payments (simulated
    #: seconds); failures carry their own signal via ``timeout_failures``
    #: and the success ratio.
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_mean: float = 0.0
    #: Engine-level re-attempts summed over all payments.
    retries_total: float = 0.0
    #: Payments that failed because their holds hit the timeout.
    timeout_failures: float = 0.0
    #: The elephant–mice cutoff used for classification (static, hinted
    #: or reservoir-estimated); informational, not persisted.
    mice_threshold: float = 0.0
    resilience: dict = field(default_factory=dict)
    fees: dict = field(default_factory=dict)
    mpp: dict = field(default_factory=dict)
    records: list[TransactionRecord] = field(default_factory=list)

    def families(self) -> tuple[MetricFamily, ...]:
        """The optional families this run carries, in record order."""
        return tuple(
            family
            for family in FAMILIES
            if (
                self.engine == "concurrent"
                if family is CONCURRENCY_FAMILY
                else getattr(self, family.name)
            )
        )

    def to_record(self) -> dict[str, float]:
        """Every persisted metric value as a flat float dict.

        This is the structured record the experiment store persists; it
        carries everything :meth:`AveragedMetrics.of` reads, so a stored
        run (see :meth:`from_record`) can stand in for a live one when a
        sweep resumes.  :data:`METRIC_FIELDS` come first, then the fields
        of each family the run carries, in :data:`FAMILIES` order; a
        record without a family is byte-identical to the format that
        predates it.
        """
        names = METRIC_FIELDS + tuple(
            name for family in self.families() for name in family.fields
        )
        return {name: float(getattr(self, name)) for name in names}

    @classmethod
    def from_record(
        cls, scheme: str, metrics: Mapping[str, float]
    ) -> "SimulationResult":
        """Rehydrate a run from a store record's ``metrics`` mapping.

        Fills only the field families the record carries, so
        ``from_record(s, r.to_record()).to_record() == r.to_record()``;
        a record written before a family existed loads with that family
        empty, its metrics reading 0.0.  Metrics are stored at full float
        precision, which keeps resumed aggregates bit-identical to a
        clean serial run.
        """

        def values(family: MetricFamily) -> dict[str, float]:
            if not any(name in metrics for name in family.fields):
                return {}
            return {name: float(metrics[name]) for name in family.fields}

        concurrent = values(CONCURRENCY_FAMILY)
        return cls(
            scheme=scheme,
            engine="concurrent" if concurrent else "sequential",
            **{name: float(metrics[name]) for name in METRIC_FIELDS},
            **concurrent,
            **{
                family.name: values(family)
                for family in FAMILIES
                if family is not CONCURRENCY_FAMILY
            },
        )


# Every metric of a dict-held family is also an attribute of the result.
for _family in FAMILIES:
    if _family is not CONCURRENCY_FAMILY:
        for _name in _family.fields:
            setattr(SimulationResult, _name, _FamilyMetric(_family.name, _name))


class P2Quantile:
    """Single-quantile P² estimator (Jain & Chlamtac, CACM 1985).

    Tracks a running quantile in O(1) memory: five marker heights whose
    positions are nudged toward the ideal quantile positions with
    parabolic interpolation.  The first five observations are kept
    exactly, so tiny runs report the same value the list-based
    :func:`~repro.traces.workload.percentile` would.  Accuracy for
    larger runs is within a fraction of a percent for smooth
    distributions — the documented tolerance of streaming-mode latency
    and fee quantiles.  On strongly *discrete* distributions (concurrent
    latencies cluster at multiples of the hop round-trip) the parabolic
    markers can settle between adjacent modes, so differential checks
    should allow a tolerance of about one inter-mode gap.
    """

    __slots__ = ("q", "count", "_initial", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._initial: list[float] = []
        self._heights: list[float] | None = None
        self._positions: list[float] = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired: list[float] = [
            1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
        ]
        self._increments: tuple[float, ...] = (
            0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0
        )

    def observe(self, value: float) -> None:
        self.count += 1
        if self._heights is None:
            self._initial.append(float(value))
            if len(self._initial) == 5:
                self._heights = sorted(self._initial)
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = float(value)
            cell = 0
        elif value >= heights[4]:
            heights[4] = float(value)
            cell = 3
        else:
            cell = 0
            for i in range(1, 4):
                if heights[i] <= value:
                    cell = i
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        for i in (1, 2, 3):
            drift = self._desired[i] - positions[i]
            if (drift >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                drift <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if drift > 0 else -1.0
                candidate = self._parabolic(i, step)
                if not heights[i - 1] < candidate < heights[i + 1]:
                    candidate = self._linear(i, step)
                heights[i] = candidate
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current estimate (exact below five observations, 0.0 empty)."""
        if self._heights is None:
            return percentile(self._initial, self.q) if self._initial else 0.0
        return self._heights[2]


class ExactQuantile:
    """The list-backed counterpart of :class:`P2Quantile`.

    Keeps every observed value and reports
    :func:`~repro.traces.workload.percentile` over them (0.0 empty).
    """

    __slots__ = ("q", "values")

    def __init__(self, q: float) -> None:
        self.q = q
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def value(self) -> float:
        return percentile(self.values, self.q) if self.values else 0.0


class StreamingMetricsAccumulator:
    """The one metrics fold: records in, a :class:`SimulationResult` out.

    Both engines feed every finished :class:`TransactionRecord` here, on
    list-backed and streamed workloads alike.  Running sums and counts
    make every counter-style metric (success ratio, volumes, message
    counts, per-class breakdowns) exact; floats are summed left to right
    in observe order.  ``keep_records=True`` (list-backed runs) keeps
    each record for :attr:`SimulationResult.records` and each quantile's
    values, so latency p50/p95, fee p50 and MPP latency p95 are exact.
    Without it (streams) nothing per payment is held, so a trace-scale
    run never holds more than the in-flight window of transactions, and
    the quantiles are :class:`P2Quantile` estimates — as is the
    elephant–mice split itself when the classification threshold is
    estimated online rather than hinted.

    ``track_mpp`` adds :data:`MPP_FAMILY` to the result;
    :data:`FEE_FAMILY` comes with a ``revenue_by_node`` passed to
    :meth:`result`.
    """

    def __init__(
        self,
        scheme: str,
        engine: str = "sequential",
        track_mpp: bool = False,
        keep_records: bool = False,
    ) -> None:
        self.scheme = scheme
        self.engine = engine
        self.track_mpp = track_mpp
        self.records: list[TransactionRecord] | None = (
            [] if keep_records else None
        )
        quantile = ExactQuantile if keep_records else P2Quantile
        self.transactions = 0
        self.succeeded = 0
        self.attempted_volume = 0.0
        self.success_volume = 0.0
        self.probe_messages = 0
        self.payment_messages = 0
        self.total_fees = 0.0
        self._class_count = [0, 0]  # [mice, elephant]
        self._class_succeeded = [0, 0]
        self._class_success_volume = [0.0, 0.0]
        self._class_probe_messages = [0, 0]
        self._latency_sum = 0.0
        self._latency_p50 = quantile(0.5)
        self._latency_p95 = quantile(0.95)
        self.retries_total = 0
        self.timeout_failures = 0
        self._fee_p50 = quantile(0.5)
        self._mpp_payments = 0
        self._mpp_parts_sum = 0
        self._mpp_settled = 0
        self._partial_releases = 0
        self._mpp_latency_p95 = quantile(0.95)

    def observe(self, record: TransactionRecord) -> None:
        if self.records is not None:
            self.records.append(record)
        self.transactions += 1
        self.attempted_volume += record.amount
        self.probe_messages += record.probe_messages
        self.payment_messages += record.payment_messages
        cls = 1 if record.is_elephant else 0
        self._class_count[cls] += 1
        self._class_probe_messages[cls] += record.probe_messages
        self.retries_total += record.retries
        if record.timed_out:
            self.timeout_failures += 1
        if record.success:
            self.succeeded += 1
            self.success_volume += record.amount
            self.total_fees += record.fee
            self._class_succeeded[cls] += 1
            self._class_success_volume[cls] += record.amount
            self._latency_sum += record.latency
            self._latency_p50.observe(record.latency)
            self._latency_p95.observe(record.latency)
            # Always tracked: whether the fee family is reported is only
            # known at the end, because a fee controller may attach the
            # first policies at a gossip tick mid-run.
            self._fee_p50.observe(record.fee)
        if self.track_mpp:
            self._partial_releases += record.partial_releases
            if record.parts > 1:
                self._mpp_payments += 1
                self._mpp_parts_sum += record.parts
                if record.success:
                    self._mpp_settled += 1
                    self._mpp_latency_p95.observe(record.latency)

    def result(
        self,
        revenue_by_node: Mapping[object, float] | None = None,
        mice_threshold: float = 0.0,
    ) -> SimulationResult:
        """Freeze the fold into the run's result.

        ``revenue_by_node`` (``None`` for a policy-free run) adds the fee
        family; ``mice_threshold`` is the elephant–mice cutoff the run
        classified against.
        """
        fees: dict[str, float] = {}
        if revenue_by_node is not None:
            fees = fee_metrics(
                self.total_fees, self._fee_p50.value, revenue_by_node
            )
        mpp: dict[str, float] = {}
        if self.track_mpp:
            multi = self._mpp_payments
            mpp = {
                "mpp_payments": float(multi),
                "parts_per_payment": (
                    self._mpp_parts_sum / multi if multi else 0.0
                ),
                "partial_release_count": float(self._partial_releases),
                "mpp_success_ratio": (
                    self._mpp_settled / multi if multi else 0.0
                ),
                "mpp_latency_p95": float(self._mpp_latency_p95.value),
            }
        mice, elephants = self._class_count
        return SimulationResult(
            scheme=self.scheme,
            engine=self.engine,
            transactions=self.transactions,
            succeeded=self.succeeded,
            success_ratio=(
                self.succeeded / self.transactions if self.transactions else 0.0
            ),
            attempted_volume=self.attempted_volume,
            success_volume=self.success_volume,
            probe_messages=self.probe_messages,
            payment_messages=self.payment_messages,
            total_fees=self.total_fees,
            fee_to_volume_percent=(
                100.0 * self.total_fees / self.success_volume
                if self.success_volume > 0
                else 0.0
            ),
            mice_success_ratio=(
                self._class_succeeded[0] / mice if mice else 0.0
            ),
            elephant_success_ratio=(
                self._class_succeeded[1] / elephants if elephants else 0.0
            ),
            mice_success_volume=self._class_success_volume[0],
            elephant_success_volume=self._class_success_volume[1],
            mice_probe_messages=self._class_probe_messages[0],
            elephant_probe_messages=self._class_probe_messages[1],
            latency_p50=self._latency_p50.value,
            latency_p95=self._latency_p95.value,
            latency_mean=(
                self._latency_sum / self.succeeded if self.succeeded else 0.0
            ),
            retries_total=self.retries_total,
            timeout_failures=self.timeout_failures,
            mice_threshold=mice_threshold,
            fees=fees,
            mpp=mpp,
            records=self.records if self.records is not None else [],
        )


@dataclass(frozen=True)
class AveragedMetrics:
    """Mean of the headline metrics over several runs (paper: 5 runs).

    A family's fields average to zero over runs that do not carry it
    (every per-run value reads zero there), so one dataclass serves
    every configuration.  Every field between ``runs`` and ``families``
    is the mean of the same-named :class:`SimulationResult` metric;
    ``families`` names the optional families any of the runs carries,
    in record order, which is what the CLI shows.
    """

    scheme: str
    runs: int
    success_ratio: float
    success_volume: float
    probe_messages: float
    payment_messages: float
    fee_to_volume_percent: float
    mice_success_volume: float
    elephant_success_volume: float
    mice_probe_messages: float
    elephant_probe_messages: float
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_mean: float = 0.0
    retries_total: float = 0.0
    timeout_failures: float = 0.0
    attack_success_ratio: float = 0.0
    control_success_ratio: float = 0.0
    resilience_delta: float = 0.0
    recovery_half_life: float = 0.0
    adversary_escrow: float = 0.0
    fee_paid_total: float = 0.0
    fee_p50: float = 0.0
    hub_revenue: float = 0.0
    mpp_payments: float = 0.0
    parts_per_payment: float = 0.0
    partial_release_count: float = 0.0
    mpp_success_ratio: float = 0.0
    mpp_latency_p95: float = 0.0
    families: tuple[str, ...] = ()

    @classmethod
    def of(cls, results: Sequence[SimulationResult]) -> "AveragedMetrics":
        if not results:
            raise ValueError("no results to average")
        schemes = {result.scheme for result in results}
        if len(schemes) != 1:
            raise ValueError(f"mixed schemes in average: {schemes}")

        def mean(values: Iterable[float]) -> float:
            values = list(values)
            return sum(values) / len(values)

        carried = {family for result in results for family in result.families()}
        return cls(
            scheme=results[0].scheme,
            runs=len(results),
            families=tuple(
                family.name for family in FAMILIES if family in carried
            ),
            **{
                spec.name: mean(getattr(r, spec.name) for r in results)
                for spec in fields(cls)
                if spec.name not in ("scheme", "runs", "families")
            },
        )
