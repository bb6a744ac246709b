"""Elephant–mice payment classification (§2.2, §4.3).

Flash treats a payment as an *elephant* when its size is at or above a
threshold; the paper sets the threshold "such that 90% of payments are
mice" (§4.1) and sweeps it in Fig 10.  Two classifiers are provided:

* :class:`StaticThresholdClassifier` — a fixed cutoff, computed offline
  from a workload quantile (how the paper's evaluation sets it);
* :class:`StreamingQuantileClassifier` — an online estimator that tracks
  the quantile over the payments actually seen, for deployments where no
  historical trace is available (an extension beyond the paper; validated
  in the ablation benches).

The simulation engines tag every record elephant or mouse against a
:class:`MiceThreshold`, which wraps the offline quantile, a stream's
hint or a :class:`ReservoirThresholdEstimator` behind one interface.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from repro.traces.workload import Workload, WorkloadStream


@dataclass(frozen=True)
class StaticThresholdClassifier:
    """Payments with ``amount >= threshold`` are elephants."""

    threshold: float

    def is_elephant(self, amount: float) -> bool:
        return amount >= self.threshold

    def observe(self, amount: float) -> None:
        """Static classifier ignores observations."""

    @classmethod
    def from_workload(
        cls, workload: Workload, mice_fraction: float = 0.9
    ) -> "StaticThresholdClassifier":
        """Cutoff such that ``mice_fraction`` of the workload is mice."""
        return cls(workload.threshold_for_mice_fraction(mice_fraction))

    @classmethod
    def all_mice(cls) -> "StaticThresholdClassifier":
        """Every payment is a mouse (Fig 10's 100% point)."""
        return cls(float("inf"))

    @classmethod
    def all_elephants(cls) -> "StaticThresholdClassifier":
        """Every payment is an elephant (Fig 10's 0% point)."""
        return cls(0.0)


class StreamingQuantileClassifier:
    """Online mice-quantile tracking over a sliding sample.

    Keeps the most recent ``window`` amounts in sorted order and classifies
    a payment as elephant when it exceeds the ``mice_fraction`` quantile of
    the sample.  Until ``min_observations`` amounts have been seen, every
    payment is treated as a mouse (safe default: mice routing is the cheap
    path).
    """

    def __init__(
        self,
        mice_fraction: float = 0.9,
        window: int = 2_000,
        min_observations: int = 20,
    ) -> None:
        if not 0.0 <= mice_fraction <= 1.0:
            raise ValueError(f"mice_fraction must be in [0, 1], got {mice_fraction}")
        if window <= 0 or min_observations <= 0:
            raise ValueError("window and min_observations must be positive")
        self.mice_fraction = mice_fraction
        self.window = window
        self.min_observations = min_observations
        self._sorted: list[float] = []
        self._fifo: list[float] = []

    def observe(self, amount: float) -> None:
        """Record a payment size in the sliding sample."""
        self._fifo.append(amount)
        bisect.insort(self._sorted, amount)
        if len(self._fifo) > self.window:
            oldest = self._fifo.pop(0)
            index = bisect.bisect_left(self._sorted, oldest)
            del self._sorted[index]

    @property
    def threshold(self) -> float:
        """Current estimated cutoff (``inf`` while warming up)."""
        if len(self._sorted) < self.min_observations:
            return float("inf")
        index = min(
            int(self.mice_fraction * len(self._sorted)), len(self._sorted) - 1
        )
        return self._sorted[index]

    def is_elephant(self, amount: float) -> bool:
        return amount >= self.threshold


class ReservoirThresholdEstimator:
    """Mice-threshold estimate over a uniform reservoir of the stream.

    The streaming engines cannot call
    :meth:`Workload.threshold_for_mice_fraction` (no materialized
    amounts), so they estimate the cutoff from a fixed-size uniform
    sample (Vitter's reservoir algorithm R) of every amount seen so far.
    Unlike :class:`StreamingQuantileClassifier`'s sliding window, the
    reservoir weights the whole stream equally — matching the offline
    whole-workload quantile the list path computes.

    The replacement draws come from a **dedicated, fixed-seed** RNG:
    drawing from the run RNG would shift every subsequent router draw
    and break the streaming ≡ list equivalence of the headline metrics.
    Threshold semantics mirror ``threshold_for_mice_fraction``
    (``mice_fraction`` of the sample falls below the cutoff; 0.0 makes
    everything an elephant, 1.0 everything a mouse).
    """

    RESERVOIR_SEED = 0x5EED

    def __init__(
        self, mice_fraction: float = 0.9, size: int = 1_024
    ) -> None:
        if not 0.0 <= mice_fraction <= 1.0:
            raise ValueError(
                f"mice_fraction must be in [0, 1], got {mice_fraction}"
            )
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.mice_fraction = mice_fraction
        self.size = size
        self._rng = random.Random(self.RESERVOIR_SEED)
        self._seen = 0
        self._reservoir: list[float] = []
        self._sorted: list[float] = []

    def observe(self, amount: float) -> None:
        self._seen += 1
        if len(self._reservoir) < self.size:
            self._reservoir.append(amount)
            bisect.insort(self._sorted, amount)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.size:
            evicted = self._reservoir[slot]
            self._reservoir[slot] = amount
            del self._sorted[bisect.bisect_left(self._sorted, evicted)]
            bisect.insort(self._sorted, amount)

    @property
    def threshold(self) -> float:
        """Current cutoff estimate (0.0 before any observation)."""
        if not self._sorted:
            return 0.0
        if self.mice_fraction == 0.0:
            return 0.0
        if self.mice_fraction == 1.0:
            return self._sorted[-1] + 1.0
        index = min(
            int(self.mice_fraction * len(self._sorted)),
            len(self._sorted) - 1,
        )
        return self._sorted[index]

    def is_elephant(self, amount: float) -> bool:
        return amount >= self.threshold

    def classify(self, amount: float) -> bool:
        """Observe ``amount``, then classify it with the updated estimate."""
        self.observe(amount)
        return self.is_elephant(amount)


class MiceThreshold:
    """The elephant cutoff an engine tags its records with.

    A materialized :class:`~repro.traces.workload.Workload` fixes it up
    front at the exact ``mice_fraction`` quantile.  A
    :class:`~repro.traces.workload.WorkloadStream` uses its
    ``mice_threshold_hint`` when it has one, and otherwise a
    :class:`ReservoirThresholdEstimator` fed every amount the engine
    reads (``observe`` is a no-op in the other two cases).  ``value`` is
    the current cutoff; an engine reads it when it writes a record.
    """

    def __init__(
        self, workload: Workload | WorkloadStream, mice_fraction: float = 0.9
    ) -> None:
        self._estimator: ReservoirThresholdEstimator | None = None
        if not isinstance(workload, WorkloadStream):
            self.value = workload.threshold_for_mice_fraction(mice_fraction)
        elif workload.mice_threshold_hint is not None:
            self.value = workload.mice_threshold_hint
        else:
            self._estimator = ReservoirThresholdEstimator(mice_fraction)
            self.value = 0.0

    def observe(self, amount: float) -> None:
        """Feed one streamed amount to the online estimate, if any."""
        if self._estimator is not None:
            self._estimator.observe(amount)
            self.value = self._estimator.threshold
