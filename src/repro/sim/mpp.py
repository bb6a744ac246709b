"""Multi-part payments (MPP): atomic partial holds with a shared deadline.

Flash splits elephant payments across multiple paths inside one routing
decision; BOLT #4's Basic MPP goes further and makes splitting a
protocol feature — a payment fans out into N independent **parts**,
each routed and escrowed on its own, that settle **all-or-nothing**:
the receiver either collects every part or none, and any part that
fails (or the shared deadline passing) refunds every sibling part's
escrow and fees exactly.

This module holds the knobs and the split; the engine loop in
:mod:`repro.sim.concurrent` runs the parts (the sequential engine is
that loop at zero contention, so both engines share one set of MPP
rules):

* :class:`MppConfig` — the MPP knob set, a
  :class:`~repro.sim.knobs.KnobSet` like
  :class:`~repro.sim.concurrent.ConcurrencyConfig` (its ``to_params``
  is the store cell-key representation, folded into digests only when
  MPP is on, so MPP-free cells keep their pre-MPP digests);
* :func:`split_amounts` — the configurable split policies (``equal`` /
  ``proportional`` / ``flash``), all exactly conserving the parent
  amount in float arithmetic (the last part absorbs the remainder).

MPP-free runs never touch this machinery: with ``mpp=None`` the engine
routes each payment with one plain ``router.route`` call, which is what
keeps the sequential golden pin and every store digest unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.knobs import KnobSet

#: The recognised split policies, in documentation order.
SPLIT_POLICIES: tuple[str, ...] = ("equal", "proportional", "flash")


@dataclass(frozen=True)
class MppConfig(KnobSet):
    """The multi-part payment knobs (times in simulated seconds).

    ``max_parts`` caps the fan-out; ``split`` picks the policy
    (``equal`` parts, ``proportional`` to the sender's local outbound
    balances, or ``flash``-style geometric halving).  ``threshold`` is
    the amount floor for splitting — payments below it stay single-part
    — with ``0.0`` meaning "use the engine's elephant threshold".
    ``min_part_amount`` keeps splits from producing dust parts (the
    part count shrinks until every part clears it).

    ``part_retries`` / ``part_retry_delay`` bound per-part re-attempts:
    a failed part is re-attempted ``part_retry_delay`` later (``0``
    retries at the same instant).  A payment that does not split gets
    the engine's own retries instead (none on the sequential engine).
    ``deadline`` is the shared all-or-nothing deadline: every part must
    be escrowed and settle-ready within ``deadline`` seconds of the
    payment's start, or every sibling hold is refunded and the payment
    fails (``timed_out`` on the concurrent engine).  Both engines apply
    these rules alike.
    """

    max_parts: int = 4
    split: str = "equal"
    threshold: float = 0.0
    min_part_amount: float = 1.0
    part_retries: int = 1
    part_retry_delay: float = 1.0
    deadline: float = 30.0

    kind = "mpp"

    def validate(self) -> None:
        """Raise :class:`ValueError` on non-finite or out-of-range knobs."""
        super().validate()
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
