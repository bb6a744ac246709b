"""Pair draws on precomputed cumulative weights ≡ ``Random.choices``.

:class:`RecurrentPairSampler` sums its Zipf weights once and bisects
the sums itself.  Every pick must return the element
``rng.choices(population, weights=...)[0]`` returns and leave the RNG in
the state that call leaves it in, for the sender list, for a contact
list and for a contact list shorter than ``contacts_per_sender`` (which
reads a prefix of the sums).  Otherwise every workload built from the
sampler would drift.  The reference below is the former sampler, which
called ``choices`` with the weights on every pick.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.recurrence import RecurrentPairSampler, zipf_weights

#: Flat (0), gentle, the simulation's and the trace's shapes, and one so
#: steep that the tail's cumulative sums stop moving.
EXPONENTS = (0.0, 0.5, 0.8, 1.1, 1.2, 1.6, 3.0, 12.0)


class ChoicesReference(RecurrentPairSampler):
    """The sampler as it drew before: ``rng.choices`` on every pick."""

    def __init__(
        self, nodes, rng, contact_exponent=1.2, sender_exponent=1.1, **kwargs
    ):
        super().__init__(
            nodes,
            rng,
            contact_exponent=contact_exponent,
            sender_exponent=sender_exponent,
            **kwargs,
        )
        self._contact_weights = zipf_weights(
            self._contacts_per_sender, contact_exponent
        )
        self._sender_weights = zipf_weights(len(self._senders), sender_exponent)

    def sample_sender(self):
        return self._rng.choices(self._senders, weights=self._sender_weights)[0]

    def sample_pair(self):
        sender = self.sample_sender()
        contacts = self._contacts_of(sender)
        if self._rng.random() < self._repeat_probability and contacts:
            weights = self._contact_weights[: len(contacts)]
            receiver = self._rng.choices(contacts, weights=weights)[0]
        else:
            receiver = sender
            while receiver == sender:
                receiver = self._rng.choice(self._nodes)
        return sender, receiver


def twins(seed, nodes, **params):
    """The sampler and its reference, built on equal RNGs."""
    rng = random.Random(seed)
    sampler = RecurrentPairSampler(nodes, rng, **params)
    reference_rng = random.Random(seed)
    reference = ChoicesReference(nodes, reference_rng, **params)
    assert rng.getstate() == reference_rng.getstate()
    return sampler, rng, reference, reference_rng


params = st.fixed_dictionaries(
    {
        "contacts_per_sender": st.integers(1, 12),
        "contact_exponent": st.sampled_from(EXPONENTS),
        "sender_exponent": st.sampled_from(EXPONENTS),
        "active_sender_fraction": st.sampled_from((0.03, 0.25, 1.0)),
        "repeat_probability": st.sampled_from((0.0, 0.5, 0.85, 1.0)),
    }
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    population=st.integers(2, 60),
    duplicates=st.integers(0, 30),
    params=params,
)
def test_pairs_and_rng_state_match_choices(seed, population, duplicates, params):
    # Repeated node ids shrink a sender's contact pool, so some contact
    # lists come out shorter than ``contacts_per_sender``.
    nodes = list(range(population)) + [0] * duplicates
    sampler, rng, reference, reference_rng = twins(seed, nodes, **params)
    for _ in range(150):
        assert sampler.sample_pair() == reference.sample_pair()
        assert rng.getstate() == reference_rng.getstate()
    assert rng.random() == reference_rng.random()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponent=st.sampled_from(EXPONENTS),
    size=st.integers(1, 40),
)
def test_every_list_kind_picks_as_choices(seed, exponent, size):
    nodes = list(range(size + 1))
    sampler, rng, reference, reference_rng = twins(
        seed,
        nodes,
        contacts_per_sender=size,
        contact_exponent=exponent,
        sender_exponent=exponent,
        active_sender_fraction=1.0,
    )
    full = sampler._contacts_of(nodes[0])
    reference._contacts_of(nodes[0])
    assert len(full) == size
    kinds = {
        "senders": (
            sampler._senders,
            sampler._sender_cum,
            reference._sender_weights,
        ),
        "contacts": (full, sampler._contact_cum, reference._contact_weights),
        "short contacts": (
            full[: max(1, size // 2)],
            sampler._contact_cum,
            reference._contact_weights[: max(1, size // 2)],
        ),
    }
    for population, cum, weights in kinds.values():
        for _ in range(200):
            picked = sampler._pick(population, cum)
            expected = reference_rng.choices(population, weights=weights)[0]
            assert picked == expected
        assert rng.getstate() == reference_rng.getstate()
    assert rng.random() == reference_rng.random()


def test_duplicate_nodes_give_short_contact_lists():
    # The case the pair test relies on to reach a short contact list.
    nodes = [0, 1, 2] + [0] * 6
    sampler, *_ = twins(0, nodes, contacts_per_sender=8)
    assert sampler._contacts_per_sender == 8
    assert len(sampler._contacts_of(0)) == 2 < sampler._contacts_per_sender
