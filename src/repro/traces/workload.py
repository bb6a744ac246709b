"""Transactions and workloads — the unit of work for every experiment.

A :class:`Transaction` is exactly the tuple the paper's trace entries carry
(§2.2): sender, receiver, volume, and time.  A :class:`Workload` is an
ordered sequence of transactions plus the helpers the evaluation needs —
most importantly :meth:`Workload.threshold_for_mice_fraction`, which turns
"the elephant–mice threshold is set such that 90% of payments are mice"
(§4.1) into a concrete size cutoff.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.network.channel import NodeId


@dataclass(frozen=True)
class Transaction:
    """One payment: ``sender`` pays ``receiver`` ``amount`` at ``time``.

    ``time`` is in seconds from the start of the trace; the trace-driven
    simulator starts payments, and applies channel events, in time order
    (a list workload's times must not decrease), while the recurrence
    analysis (Fig 4) uses it to delimit 24-hour windows.
    """

    txid: int
    sender: NodeId
    receiver: NodeId
    amount: float
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError(f"negative payment amount {self.amount!r}")
        if self.time < 0:
            raise ValueError(f"negative payment time {self.time!r}")
        if self.sender == self.receiver:
            raise ValueError(f"self-payment at node {self.sender!r}")


@dataclass
class Workload:
    """An ordered transaction sequence with summary helpers."""

    transactions: list[Transaction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __getitem__(self, index: int) -> Transaction:
        return self.transactions[index]

    def append(self, transaction: Transaction) -> None:
        self.transactions.append(transaction)

    def extend(self, transactions: Iterable[Transaction]) -> None:
        self.transactions.extend(transactions)

    @property
    def total_volume(self) -> float:
        return sum(txn.amount for txn in self.transactions)

    @property
    def amounts(self) -> list[float]:
        return [txn.amount for txn in self.transactions]

    def senders(self) -> set[NodeId]:
        return {txn.sender for txn in self.transactions}

    def pairs(self) -> set[tuple[NodeId, NodeId]]:
        return {(txn.sender, txn.receiver) for txn in self.transactions}

    def threshold_for_mice_fraction(self, mice_fraction: float) -> float:
        """Size cutoff below which ``mice_fraction`` of payments fall.

        With ``mice_fraction=0.9`` this reproduces the paper's default
        elephant–mice split (90% of payments are mice).  Edge cases:
        ``0.0`` classifies everything as elephant, ``1.0`` everything as
        mice.
        """
        if not 0.0 <= mice_fraction <= 1.0:
            raise ValueError(f"mice_fraction must be in [0, 1], got {mice_fraction}")
        if not self.transactions:
            return 0.0
        if mice_fraction == 0.0:
            return 0.0
        ordered = sorted(self.amounts)
        if mice_fraction == 1.0:
            return ordered[-1] + 1.0
        index = int(mice_fraction * len(ordered))
        index = min(index, len(ordered) - 1)
        return ordered[index]

    def head(self, n: int) -> "Workload":
        """The first ``n`` transactions as a new workload."""
        return Workload(self.transactions[:n])


class WorkloadStream:
    """A transaction stream: accepted everywhere :class:`Workload` is.

    Where a :class:`Workload` materializes every transaction in a list,
    a stream yields them one at a time in chronological order, so the
    engines can replay trace-scale workloads (~1M payments, the
    ``lightning-day`` scenario) in O(lookahead-window) memory.  Engines
    detect a stream input and take their single-pass path, where the
    metrics fold (:class:`repro.sim.metrics.StreamingMetricsAccumulator`)
    keeps no records and estimates quantiles; for a list-backed input it
    keeps the records and exact quantiles, byte-identical to before
    streams existed.

    ``source`` is either

    * a zero-argument callable returning a fresh iterator — the stream is
      **re-streamable**: every ``iter()`` starts a new pass.  This is
      what multi-scheme comparisons need (each scheme replays the same
      stream), and what seeded generators provide naturally
      (``WorkloadStream(lambda: stream_workload(random.Random(seed), ...))``);
    * an iterable of :class:`Transaction` — strictly **single-pass**: a
      second ``iter()`` raises rather than silently yielding nothing.

    ``length`` is the known transaction count when the generator knows it
    (all bundled generators do), or ``None``.  ``mice_threshold_hint``
    optionally carries a precomputed elephant–mice cutoff; without it the
    engines estimate the cutoff online from a seeded reservoir sample,
    making the class-breakdown metrics approximate (headline
    success/volume/message metrics are exact either way).
    """

    def __init__(
        self,
        source: Callable[[], Iterator[Transaction]] | Iterable[Transaction],
        length: int | None = None,
        mice_threshold_hint: float | None = None,
    ) -> None:
        if length is not None and length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        self._factory: Callable[[], Iterator[Transaction]] | None = None
        self._iterator: Iterator[Transaction] | None = None
        if callable(source):
            self._factory = source
        else:
            self._iterator = iter(source)
        self.length = length
        self.mice_threshold_hint = mice_threshold_hint

    @property
    def restartable(self) -> bool:
        """Whether every ``iter()`` starts a fresh pass."""
        return self._factory is not None

    def __iter__(self) -> Iterator[Transaction]:
        if self._factory is not None:
            return iter(self._factory())
        if self._iterator is None:
            raise RuntimeError(
                "WorkloadStream already consumed; construct it from a "
                "zero-argument callable source to make it re-streamable"
            )
        iterator, self._iterator = self._iterator, None
        return iterator

    def threshold_for_mice_fraction(self, mice_fraction: float) -> float:
        """The hinted cutoff; raises without a hint (streams hold no list).

        Engines never call this on a stream (they estimate online from a
        reservoir instead); it exists so code written against the
        :class:`Workload` interface fails loudly rather than silently.
        """
        if not 0.0 <= mice_fraction <= 1.0:
            raise ValueError(
                f"mice_fraction must be in [0, 1], got {mice_fraction}"
            )
        if self.mice_threshold_hint is None:
            raise TypeError(
                "a WorkloadStream has no materialized amounts; pass "
                "mice_threshold_hint= or materialize() it first"
            )
        return self.mice_threshold_hint

    def materialize(self, limit: int | None = None) -> Workload:
        """Collect (up to ``limit``) transactions into a list-backed
        :class:`Workload` — one pass of the stream."""
        transactions: list[Transaction] = []
        for transaction in self:
            if limit is not None and len(transactions) >= limit:
                break
            transactions.append(transaction)
        return Workload(transactions)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight
