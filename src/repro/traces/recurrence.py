"""The sender–receiver process: recurrent, clustered payment pairs.

§2.2 of the paper measures two structural properties of the Ripple trace:

* within a 24-hour window, a median of **86%** of transactions are
  *recurring* — their (sender, receiver) pair appeared earlier in the
  window; and
* an average user's **top-5** most frequent recurring receivers account for
  over **70%** of its daily transactions.

:class:`RecurrentPairSampler` is a generative model with those properties:
each sender owns a small Zipf-weighted contact list that it pays with
probability ``repeat_probability``, and otherwise picks a fresh uniform
receiver (ad-hoc payment).  Senders themselves are Zipf-distributed, so a
day contains many payments from the active senders — which is what makes
pairs recur inside a window.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Sequence
from itertools import accumulate

from repro.network.channel import NodeId


def zipf_weights(n: int, exponent: float) -> list[float]:
    """Normalized Zipf weights ``1/rank**exponent`` for ranks 1..n."""
    if n <= 0:
        raise ValueError("n must be positive")
    raw = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


class RecurrentPairSampler:
    """Draws (sender, receiver) pairs with recurrence and clustering.

    Parameters
    ----------
    nodes:
        Population to draw from (e.g. the topology's node list).
    contacts_per_sender:
        Size of each sender's personal contact list.
    contact_exponent:
        Zipf exponent over a sender's contacts; ~1.6 concentrates ≥70% of
        recurrent traffic on the top-5 contacts (Fig 4b).
    sender_exponent:
        Zipf exponent over the *active* senders; >0 concentrates sending
        activity so that pairs recur within a day (Fig 4a).
    active_sender_fraction:
        Fraction of the population that sends payments at all.  Real
        financial activity is dominated by a small set of businesses and
        exchanges; this is the main lever behind the paper's 86%
        within-day recurrence.
    repeat_probability:
        Probability a payment goes to the contact list rather than a fresh
        uniform receiver.
    """

    def __init__(
        self,
        nodes: Sequence[NodeId],
        rng: random.Random,
        contacts_per_sender: int = 8,
        contact_exponent: float = 1.2,
        sender_exponent: float = 1.1,
        active_sender_fraction: float = 0.03,
        repeat_probability: float = 0.92,
    ) -> None:
        if len(nodes) < 2:
            raise ValueError("need at least two nodes")
        if not 0.0 <= repeat_probability <= 1.0:
            raise ValueError("repeat_probability must be in [0, 1]")
        if not 0.0 < active_sender_fraction <= 1.0:
            raise ValueError("active_sender_fraction must be in (0, 1]")
        self._nodes = list(nodes)
        self._rng = rng
        self._contacts_per_sender = min(contacts_per_sender, len(nodes) - 1)
        # Cumulative weights, summed once: a pick bisects them exactly as
        # ``rng.choices(population, weights=...)`` would after re-summing
        # the same weights, with the same single ``random()`` draw.  A
        # shorter contact list reads a prefix, whose sums are the same.
        self._contact_cum = list(
            accumulate(zipf_weights(self._contacts_per_sender, contact_exponent))
        )
        self._repeat_probability = repeat_probability
        # Only a small Zipf-weighted subset of nodes sends payments: a
        # handful of "businesses" originate most transactions, like real
        # financial activity.
        shuffled = list(self._nodes)
        rng.shuffle(shuffled)
        active = max(2, int(round(active_sender_fraction * len(shuffled))))
        self._senders = shuffled[:active]
        self._sender_cum = list(
            accumulate(zipf_weights(len(self._senders), sender_exponent))
        )
        self._contacts: dict[NodeId, list[NodeId]] = {}

    def _contacts_of(self, sender: NodeId) -> list[NodeId]:
        contacts = self._contacts.get(sender)
        if contacts is None:
            pool = [node for node in self._nodes if node != sender]
            contacts = self._rng.sample(
                pool, min(self._contacts_per_sender, len(pool))
            )
            self._contacts[sender] = contacts
        return contacts

    def _pick(self, population: list[NodeId], cum: list[float]) -> NodeId:
        """``rng.choices(population, weights=...)[0]`` over the weights
        whose first ``len(population)`` cumulative sums ``cum`` holds."""
        hi = len(population) - 1
        return population[
            bisect(cum, self._rng.random() * (cum[hi] + 0.0), 0, hi)
        ]

    def sample_sender(self) -> NodeId:
        return self._pick(self._senders, self._sender_cum)

    def sample_pair(self) -> tuple[NodeId, NodeId]:
        """One (sender, receiver) pair."""
        sender = self.sample_sender()
        contacts = self._contacts_of(sender)
        if self._rng.random() < self._repeat_probability and contacts:
            receiver = self._pick(contacts, self._contact_cum)
        else:
            receiver = sender
            while receiver == sender:
                receiver = self._rng.choice(self._nodes)
        return sender, receiver

    def sample_pairs(self, n: int) -> list[tuple[NodeId, NodeId]]:
        return [self.sample_pair() for _ in range(n)]


def uniform_pairs(
    nodes: Sequence[NodeId], rng: random.Random, n: int
) -> list[tuple[NodeId, NodeId]]:
    """Ad-hoc baseline: uniformly random sender–receiver pairs."""
    if len(nodes) < 2:
        raise ValueError("need at least two nodes")
    pairs = []
    for _ in range(n):
        sender, receiver = rng.sample(list(nodes), 2)
        pairs.append((sender, receiver))
    return pairs
