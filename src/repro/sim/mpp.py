"""Multi-part payments (MPP): atomic partial holds with a shared deadline.

Flash splits elephant payments across multiple paths inside one routing
decision; BOLT #4's Basic MPP goes further and makes splitting a
protocol feature — a payment fans out into N independent **parts**,
each routed and escrowed on its own, that settle **all-or-nothing**:
the receiver either collects every part or none, and any part that
fails (or the shared deadline passing) refunds every sibling part's
escrow and fees exactly.

This module is engine-agnostic glue shared by both engines:

* :class:`MppConfig` — the MPP knob set, with the same
  ``validate``/``from_params``/``to_params`` contract as
  :class:`~repro.sim.concurrent.ConcurrencyConfig` (it is the store
  cell-key representation, folded into digests only when MPP is on);
* :func:`split_amounts` — the configurable split policies (``equal`` /
  ``proportional`` / ``flash``), all exactly conserving the parent
  amount in float arithmetic (the last part absorbs the remainder);
* :func:`execute_parts_atomically` — the sequential-settle core used
  by the sequential engine :func:`repro.sim.engine.run_simulation`:
  parts reserve
  one by one through a deferring ledger, and only when *every* part is
  escrowed do the holds settle, at one observable instant.  The
  concurrent engine implements the same contract on its event queue
  (parts retry independently before a shared deadline) — see
  :mod:`repro.sim.concurrent`.

MPP-free runs never touch this machinery: with ``mpp=None`` an engine
routes each payment with one plain ``router.route`` call, which is what
keeps the sequential golden pin and every store digest unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields, replace

from repro.traces.workload import Transaction

#: The recognised split policies, in documentation order.
SPLIT_POLICIES: tuple[str, ...] = ("equal", "proportional", "flash")


@dataclass(frozen=True)
class MppConfig:
    """The multi-part payment knobs (times in simulated seconds).

    ``max_parts`` caps the fan-out; ``split`` picks the policy
    (``equal`` parts, ``proportional`` to the sender's local outbound
    balances, or ``flash``-style geometric halving).  ``threshold`` is
    the amount floor for splitting — payments below it stay single-part
    — with ``0.0`` meaning "use the engine's elephant threshold".
    ``min_part_amount`` keeps splits from producing dust parts (the
    part count shrinks until every part clears it).

    ``part_retries`` / ``part_retry_delay`` bound per-part re-attempts:
    the sequential engine retries a failed part immediately (capacity
    may differ because sibling holds moved the balance picture), the
    concurrent engine re-schedules the part ``part_retry_delay`` later.
    ``deadline`` is the shared all-or-nothing deadline: on the
    concurrent engine every part must be escrowed and settle-ready
    within ``deadline`` seconds of the payment's start, or every
    sibling hold is refunded and the payment fails ``timed_out``.
    """

    max_parts: int = 4
    split: str = "equal"
    threshold: float = 0.0
    min_part_amount: float = 1.0
    part_retries: int = 1
    part_retry_delay: float = 1.0
    deadline: float = 30.0

    def validate(self) -> None:
        """Raise :class:`ValueError` on out-of-range knob values."""
        if self.max_parts < 1:
            raise ValueError(f"max_parts must be >= 1, got {self.max_parts}")
        if self.split not in SPLIT_POLICIES:
            names = ", ".join(SPLIT_POLICIES)
            raise ValueError(
                f"unknown split policy {self.split!r} (known: {names})"
            )
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.min_part_amount <= 0:
            raise ValueError(
                f"min_part_amount must be positive, got {self.min_part_amount}"
            )
        if self.part_retries < 0:
            raise ValueError(
                f"part_retries must be >= 0, got {self.part_retries}"
            )
        if self.part_retry_delay < 0:
            raise ValueError(
                f"part_retry_delay must be >= 0, got {self.part_retry_delay}"
            )
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")

    @classmethod
    def from_params(
        cls, params: Mapping[str, object] | None = None
    ) -> "MppConfig":
        """Build from a knob mapping; unknown keys and bad values raise.

        The single coercion point for MPP parameters coming from
        scenario registrations, CLI flags, and store cell keys.
        """
        known = {spec.name for spec in fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in dict(params or {}).items():
            if key not in known:
                names = ", ".join(sorted(known))
                raise ValueError(
                    f"unknown mpp parameter {key!r} (known: {names})"
                )
            if key in ("max_parts", "part_retries"):
                kwargs[key] = int(value)
            elif key == "split":
                kwargs[key] = str(value)
            else:
                kwargs[key] = float(value)
        config = cls(**kwargs)
        config.validate()
        return config

    def to_params(self) -> dict[str, object]:
        """Every knob as a plain dict — the store cell-key representation.

        Always fully resolved (defaults included), so an explicitly
        passed default and an omitted knob hash identically.  The whole
        block only enters a cell digest when MPP is enabled, so MPP-free
        cells keep their pre-MPP digests.
        """
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


def split_amounts(
    config: MppConfig,
    amount: float,
    threshold: float,
    graph=None,
    sender=None,
) -> list[float]:
    """Split ``amount`` into part amounts under ``config``'s policy.

    Payments below the splitting floor stay whole: ``config.threshold``
    when it is set, otherwise ``threshold`` (the engine's elephant
    cutoff).  Every policy conserves the parent amount *exactly* in float
    arithmetic — the last part is computed as the remainder — and never
    emits a part below ``min_part_amount`` (the part count shrinks
    instead).  ``proportional`` weights parts by the sender's local
    outbound balances (information a sender holds for free, §3.1), with
    a deterministic tie-break on the textual peer id; it needs ``graph``
    and ``sender`` and falls back to ``equal`` when the sender has
    fewer than two funded channels.
    """
    if amount < (config.threshold if config.threshold > 0 else threshold):
        return [amount]
    parts = min(config.max_parts, int(amount // config.min_part_amount))
    if parts <= 1:
        return [amount]
    if config.split == "flash":
        # Geometric halving: 1/2, 1/4, ... with the final part matching
        # the smallest slice (and absorbing the float remainder).
        while parts > 1 and amount / (2 ** (parts - 1)) < config.min_part_amount:
            parts -= 1
        if parts <= 1:
            return [amount]
        head = [amount / (2.0**i) for i in range(1, parts)]
        return head + [amount - sum(head)]
    if config.split == "proportional" and graph is not None:
        weights = sorted(
            (
                (graph.balance(sender, peer), str(peer))
                for peer in graph.neighbors(sender)
                if graph.balance(sender, peer) > 0.0
            ),
            key=lambda item: (-item[0], item[1]),
        )
        while len(weights) >= 2:
            chosen = weights[: min(parts, len(weights))]
            total = sum(balance for balance, _ in chosen)
            head = [
                amount * balance / total for balance, _ in chosen[:-1]
            ]
            split = head + [amount - sum(head)]
            if min(split) >= config.min_part_amount:
                return split
            weights = weights[:-1]
        # Fewer than two funded channels: fall through to equal.
    base = amount / parts
    head = [base] * (parts - 1)
    return head + [amount - sum(head)]


@dataclass
class MppOutcome:
    """What one multi-part execution did, for the engine's record.

    ``partial_releases`` counts sibling parts whose escrow was refunded
    because a later part failed — the observable footprint of the
    all-or-nothing abort (0 on success and on single-part payments).
    """

    success: bool
    fee: float
    transfers: list
    parts: int
    attempts: int
    partial_releases: int


def execute_parts_atomically(
    graph,
    router,
    ledger,
    transaction: Transaction,
    amounts: Sequence[float],
    part_retries: int,
) -> MppOutcome:
    """Reserve every part, then settle all — or refund all — at once.

    The sequential engine's MPP core: each part is routed by the
    unmodified router through a deferring ledger
    (:class:`~repro.sim.concurrent.HoldLedger` semantics — ``begin`` /
    ``collect`` bracket each route, commit stages holds instead of
    settling).  A failed part is retried up to ``part_retries`` times
    immediately; if it still fails, every sibling's staged holds are
    released in reverse placement order and nothing settles.  Only when
    the last part is escrowed do all holds settle, in placement order,
    at one observable instant — at no point is the payment partially
    settled.
    """
    all_holds: list = []
    all_transfers: list = []
    total_fee = 0.0
    attempts = 0
    reserved_parts = 0
    for part_amount in amounts:
        part = (
            transaction
            if part_amount == transaction.amount
            else replace(transaction, amount=part_amount)
        )
        reserved = False
        for _ in range(part_retries + 1):
            ledger.begin()
            outcome = router.route(part)
            holds, transfers = ledger.collect()
            attempts += 1
            if outcome.success:
                all_holds.extend(holds)
                all_transfers.extend(transfers or list(outcome.transfers))
                total_fee += outcome.fee
                reserved = True
                reserved_parts += 1
                break
            # Defensive: a failed route must not leave escrow behind.
            for u, v, held in reversed(holds):
                graph.release_hold(u, v, held)
        if not reserved:
            # All-or-nothing abort: refund every sibling's escrow.
            for u, v, held in reversed(all_holds):
                graph.release_hold(u, v, held)
            return MppOutcome(
                success=False,
                fee=0.0,
                transfers=[],
                parts=len(amounts),
                attempts=attempts,
                partial_releases=reserved_parts,
            )
    for u, v, held in all_holds:
        graph.settle_hold(u, v, held)
    return MppOutcome(
        success=True,
        fee=total_fee,
        transfers=all_transfers,
        parts=len(amounts),
        attempts=attempts,
        partial_releases=0,
    )
