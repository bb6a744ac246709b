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

Runs produced by the concurrent engine
(:mod:`repro.sim.concurrent`) also carry per-payment latency, retry
counts, and timeout failures; those extra fields
(:data:`CONCURRENT_METRIC_FIELDS`) are appended to the stored record
only when ``engine="concurrent"`` so sequential store records stay
byte-identical to the pre-concurrent format.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields

from repro.traces.workload import percentile

#: The per-run metric fields persisted to the experiment store
#: (:mod:`repro.eval.store`) and consumed by :meth:`AveragedMetrics.of`.
#: Order is the canonical column order of generated reports.
METRIC_FIELDS: tuple[str, ...] = (
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
)

#: Extra per-run fields recorded only by the concurrent engine
#: (latencies in simulated seconds, over *successful* payments).
CONCURRENT_METRIC_FIELDS: tuple[str, ...] = (
    "latency_p50",
    "latency_p95",
    "latency_mean",
    "retries_total",
    "timeout_failures",
)

#: Resilience fields recorded only when a fault plan was injected
#: (:mod:`repro.sim.faults`).  Appended after the engine's field set, so
#: fault-free records — sequential and concurrent — keep their exact
#: pre-faults shape and store digests.
RESILIENCE_METRIC_FIELDS: tuple[str, ...] = (
    "attack_success_ratio",
    "control_success_ratio",
    "resilience_delta",
    "recovery_half_life",
    "adversary_escrow",
)

#: Fee-market fields recorded only for policy-aware runs (BOLT #7
#: channel policies assigned — see :mod:`repro.network.fees`).  Appended
#: after the resilience set, so fee-free records keep their exact
#: pre-policy shape and store digests.
FEE_METRIC_FIELDS: tuple[str, ...] = (
    "fee_paid_total",
    "fee_p50",
    "hub_revenue",
)

#: Multi-part payment fields recorded only when MPP is enabled
#: (:mod:`repro.sim.mpp`).  Appended after the fee set, so MPP-free
#: records keep their exact pre-MPP shape and store digests.
MPP_METRIC_FIELDS: tuple[str, ...] = (
    "mpp_payments",
    "parts_per_payment",
    "partial_release_count",
    "mpp_success_ratio",
    "mpp_latency_p95",
)


def fee_metrics(
    fee_paid_total: float,
    fee_p50: float,
    revenue_by_node: Mapping[object, float],
) -> dict[str, float]:
    """The :data:`FEE_METRIC_FIELDS` values for one policy-aware run.

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
    """One metric of a conditional family, read from the result's dict.

    Reads 0.0 when the family is absent, so every result answers every
    metric name :class:`AveragedMetrics` averages.
    """

    def __init__(self, family: str) -> None:
        self.family = family

    def __set_name__(self, owner: type, name: str) -> None:
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
    or ``"concurrent"``); it selects which field set :meth:`to_record`
    persists.  ``resilience`` is populated (with exactly
    :data:`RESILIENCE_METRIC_FIELDS`) only when the run injected a
    fault plan; ``fees`` (exactly :data:`FEE_METRIC_FIELDS`, see
    :func:`fee_metrics`) only when the run's graph carried BOLT channel
    policies; ``mpp`` (exactly :data:`MPP_METRIC_FIELDS`) only when the
    run enabled multi-part payments.  All stay empty — and invisible to
    :meth:`to_record` — otherwise.  ``records`` holds a list-backed run's
    per-payment records in workload order; it is empty for a streamed
    run and for a stored one.
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

    # Resilience (:mod:`repro.sim.faults`): attack- and control-window
    # success rates, their difference, the seconds after heal until the
    # success rate recovers, and fund-seconds held by adversary jams.
    attack_success_ratio = _FamilyMetric("resilience")
    control_success_ratio = _FamilyMetric("resilience")
    resilience_delta = _FamilyMetric("resilience")
    recovery_half_life = _FamilyMetric("resilience")
    adversary_escrow = _FamilyMetric("resilience")
    # Fee market: total and median fee of successful payments, and the
    # fees pocketed by the best-earning intermediary.
    fee_paid_total = _FamilyMetric("fees")
    fee_p50 = _FamilyMetric("fees")
    hub_revenue = _FamilyMetric("fees")
    # Multi-part payments: payments split into more than one part, their
    # mean part count and success rate, sibling holds refunded by the
    # all-or-nothing abort, and the p95 latency of settled ones.
    mpp_payments = _FamilyMetric("mpp")
    parts_per_payment = _FamilyMetric("mpp")
    partial_release_count = _FamilyMetric("mpp")
    mpp_success_ratio = _FamilyMetric("mpp")
    mpp_latency_p95 = _FamilyMetric("mpp")

    def to_record(self) -> dict[str, float]:
        """Every persisted metric value as a flat float dict.

        This is the structured record the experiment store persists; it
        carries everything :meth:`AveragedMetrics.of` reads, so a stored
        run (see :meth:`from_record`) can stand in for a live one when a
        sweep resumes.  Concurrent-engine runs additionally persist
        :data:`CONCURRENT_METRIC_FIELDS`; sequential records are
        unchanged from the pre-concurrent format.  Runs with an injected
        fault plan append :data:`RESILIENCE_METRIC_FIELDS`; fault-free
        records are byte-identical to the pre-faults format.
        Policy-aware runs append :data:`FEE_METRIC_FIELDS`; policy-free
        records are byte-identical to the pre-policy format.  MPP-enabled
        runs append :data:`MPP_METRIC_FIELDS` last; MPP-free records are
        byte-identical to the pre-MPP format.
        """
        names = METRIC_FIELDS
        if self.engine == "concurrent":
            names = METRIC_FIELDS + CONCURRENT_METRIC_FIELDS
        if self.resilience:
            names = names + RESILIENCE_METRIC_FIELDS
        if self.fees:
            names = names + FEE_METRIC_FIELDS
        if self.mpp:
            names = names + MPP_METRIC_FIELDS
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

        def family(names: tuple[str, ...]) -> dict[str, float]:
            if not any(name in metrics for name in names):
                return {}
            return {name: float(metrics[name]) for name in names}

        concurrent = family(CONCURRENT_METRIC_FIELDS)
        return cls(
            scheme=scheme,
            engine="concurrent" if concurrent else "sequential",
            **{name: float(metrics[name]) for name in METRIC_FIELDS},
            **concurrent,
            resilience=family(RESILIENCE_METRIC_FIELDS),
            fees=family(FEE_METRIC_FIELDS),
            mpp=family(MPP_METRIC_FIELDS),
        )


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

    ``track_mpp`` adds the MPP family (:data:`MPP_METRIC_FIELDS`) to the
    result; the fee family comes with a ``revenue_by_node`` passed to
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

    The concurrency fields average to zero for sequential runs (every
    per-run value is zero there), so one dataclass serves both engines.
    Every field after ``runs`` is the mean of the same-named
    :class:`SimulationResult` metric.
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

        return cls(
            scheme=results[0].scheme,
            runs=len(results),
            **{
                spec.name: mean(getattr(r, spec.name) for r in results)
                for spec in fields(cls)
                if spec.name not in ("scheme", "runs")
            },
        )
