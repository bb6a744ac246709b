"""The sender's view of the network: topology for free, balances by probing.

The central tension the paper studies is *path optimality vs. probing
overhead*: channel balances change after every payment, so any balance
information a router uses must be probed, and probes cost messages.  To make
that cost measurable, routers in this library never touch
:class:`~repro.network.graph.ChannelGraph` balances directly.  They operate
through a :class:`NetworkView`, which

* exposes the structural topology at zero cost (the gossip assumption of
  §3.1),
* answers balance probes while counting probe messages (one message per hop
  traversed, matching the paper's "proportional to the number of hops"), and
* issues :class:`PaymentSession` objects that stage partial payments with
  channel *holds* and commit or abort them atomically (the AMP assumption).

Because probes read balances net of holds, routers automatically plan
against ``available = balance - in_flight`` whichever engine drives
them.  The concurrent engine (:mod:`repro.sim.concurrent`) subclasses
this view to *defer* settlement: its sessions place the same holds but
hand them to the event loop on commit instead of settling instantly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InsufficientBalanceError, NoChannelError, ProtocolError
from repro.network.channel import NodeId
from repro.network.compact import CompactTopology
from repro.network.fees import FeePolicy
from repro.network.graph import ChannelGraph, Path


@dataclass
class MessageCounters:
    """Message/overhead accounting for one router run."""

    probe_messages: int = 0
    probe_operations: int = 0
    payment_messages: int = 0
    payment_attempts: int = 0

    def reset(self) -> None:
        self.probe_messages = 0
        self.probe_operations = 0
        self.payment_messages = 0
        self.payment_attempts = 0


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of probing one path.

    A PROBE message walking a path observes each channel it crosses, so it
    learns the balance in both directions (Algorithm 1 records ``C[u, v]``
    *and* ``C[v, u]`` from one probe), plus the fee policy charged for the
    forward direction.
    """

    path: tuple[NodeId, ...]
    balances: tuple[float, ...]
    reverse_balances: tuple[float, ...]
    fees: tuple[FeePolicy, ...]

    @property
    def bottleneck(self) -> float:
        return min(self.balances)


def _probe(
    graph: ChannelGraph, counters: MessageCounters, path: Path
) -> ProbeResult:
    """Read ``path`` off ``graph`` and count one message per hop.

    A path without a hop raises :class:`NoChannelError` and counts
    nothing.
    """
    balances, reverse_balances, fees = graph.probe_readings(path)
    counters.probe_operations += 1
    counters.probe_messages += len(balances)
    # A probe result dies with its attempt, so it may skip the frozen
    # dataclass __init__, at half its cost (see "Lifecycle of one
    # payment" in docs/CONCURRENCY.md for which objects may).
    result = object.__new__(ProbeResult)
    fields = result.__dict__
    fields["path"] = tuple(path)
    fields["balances"] = balances
    fields["reverse_balances"] = reverse_balances
    fields["fees"] = fees
    return result


class NetworkView:
    """A node's interface to the offchain network."""

    def __init__(self, graph: ChannelGraph) -> None:
        self._graph = graph
        self.counters = MessageCounters()

    # ------------------------------------------------------------ topology

    def compact_topology(self) -> "CompactTopology":
        """Interned CSR form of the structural topology (cached, §3.1).

        The structural adjacency (no balances) is locally available, so
        reading it costs no messages.  The snapshot is a read-only
        ``node -> neighbors`` mapping that every path algorithm walks;
        see :mod:`repro.network.compact`.  Under churn the cached snapshot
        is maintained *incrementally* (closed channels tombstoned,
        opened ones arena-appended) rather than rebuilt, so calling
        this after an event batch is cheap; a previously returned
        snapshot stays frozen, which is what preserves the gossip-delay
        semantics for routers holding one between ticks.
        """
        return self._graph.compact()

    # ------------------------------------------------------------- probing

    def probe_path(self, path: Path) -> ProbeResult:
        """Probe every channel on ``path`` for live balance and fees.

        Costs ``len(path) - 1`` probe messages (one per hop).  A closed
        hop reads zero capacity both ways; a path without a hop raises
        :class:`NoChannelError`.
        """
        return _probe(self._graph, self.counters, path)

    def path_fee(self, path: Path, amount: float) -> float:
        """Fee of routing ``amount`` over ``path``.

        Fee *policies* are static channel metadata distributed with the
        topology gossip, so reading them costs no probe messages (§3.1);
        only balances require probing.
        """
        return self._graph.path_fee(list(path), amount)

    # ----------------------------------------------------------- execution

    def try_execute(self, transfers: list[tuple[tuple[NodeId, ...], float]]) -> bool:
        """Atomically apply a multi-path payment with per-channel netting.

        This is the execution primitive for elephant payments: partial
        payments in opposite directions of a channel offset each other,
        matching the capacity constraint of program (1).  Returns False
        (leaving all balances untouched) if any channel would overdraw.

        Costs one payment message per hop of every partial payment.
        """
        from repro.network.graph import Transfer

        staged = [Transfer(tuple(path), amount) for path, amount in transfers]
        self.counters.payment_attempts += 1
        self.counters.payment_messages += sum(
            len(transfer.path) - 1 for transfer in staged
        )
        try:
            self._graph.execute(staged)
        except (InsufficientBalanceError, NoChannelError):
            return False
        return True

    # ------------------------------------------------------------ sessions

    def open_session(self) -> "PaymentSession":
        """Start an atomic (multi-path) payment session."""
        return PaymentSession(self._graph, self.counters)


class PaymentSession:
    """Stages partial payments with holds; commits or aborts atomically.

    This models the AMP behaviour of §3.1: the receiver either receives all
    partial payments or none.  Reservations see balances net of earlier
    reservations in the same session, so two partial payments sharing a
    channel cannot jointly overdraw it.

    Extension surface: the concurrent engine's
    :class:`~repro.sim.concurrent.DeferredPaymentSession` overrides
    :meth:`commit` only — ``_staged`` (the placed hop holds, as
    ``(src, dst, amount)`` tuples), ``_transfers`` (the reserved paths),
    ``_closed``, and :meth:`_check_open` are the protected state a
    subclass may rely on.
    """

    def __init__(self, graph: ChannelGraph, counters: MessageCounters) -> None:
        self._graph = graph
        self._counters = counters
        self._staged: list[tuple[NodeId, NodeId, float]] = []
        self._transfers: list[tuple[tuple[NodeId, ...], float]] = []
        self._closed = False

    # ------------------------------------------------------------ staging

    def try_reserve(self, path: Path, amount: float) -> bool:
        """Attempt to escrow ``amount`` along ``path``; all-or-nothing.

        Costs one payment message per hop reached (a failed attempt still
        pays for the hops it traversed before bouncing, like a COMMIT_NACK).
        """
        self._check_open()
        if amount <= 0:
            return False
        if self._graph.policy_aware:
            # BOLT escrow: hop ``i`` locks the delivered amount plus
            # every downstream hop's fee, so intermediaries are paid on
            # settle.  ``amount`` stays the *delivered* amount in the
            # transfer record — fee accounting reads ``path_fee``.
            try:
                hop_amounts = self._graph.path_hop_amounts(list(path), amount)
            except NoChannelError:
                # A channel closed since the router's last gossip tick
                # has no policy to price the escrow with: the attempt
                # bounces there, as at any dead hop, and holds nothing.
                self._counters.payment_attempts += 1
                self._counters.payment_messages += 1 + next(
                    index
                    for index, (u, v) in enumerate(zip(path, path[1:]))
                    if not self._graph.has_channel(u, v)
                )
                return False
        else:
            hop_amounts = None
        placed: list[tuple[NodeId, NodeId, float]] = []
        self._counters.payment_attempts += 1
        for index, (u, v) in enumerate(zip(path, path[1:])):
            self._counters.payment_messages += 1
            hop_amount = amount if hop_amounts is None else hop_amounts[index]
            try:
                held = self._graph.channel(u, v).hold(u, v, hop_amount)
            except NoChannelError:
                held = False
            if not held:
                for src, dst, placed_amount in reversed(placed):
                    self._graph.channel(src, dst).release_hold(
                        src, dst, placed_amount
                    )
                return False
            placed.append((u, v, hop_amount))
        self._staged.extend(placed)
        self._transfers.append((tuple(path), amount))
        return True

    def probe(self, path: Path) -> ProbeResult:
        """Probe within the session (sees balances net of our own holds)."""
        self._check_open()
        return _probe(self._graph, self._counters, path)

    @property
    def reserved_total(self) -> float:
        """Sum of amounts successfully reserved so far."""
        return sum(amount for _, amount in self._transfers)

    @property
    def transfers(self) -> list[tuple[tuple[NodeId, ...], float]]:
        return list(self._transfers)

    # ----------------------------------------------------------- lifecycle

    def commit(self) -> None:
        """Settle every reservation (2PC CONFIRM)."""
        self._check_open()
        # Close first so a failure cannot cause a second settle from
        # __exit__ (the exception still propagates).
        self._closed = True
        for src, dst, amount in self._staged:
            # Through the graph, not the channel: the graph-level settle
            # feeds the fee controller's traffic signal (a no-op on
            # policy-free graphs).
            self._graph.settle_hold(src, dst, amount)
        self._counters.payment_messages += len(self._staged)

    def abort(self) -> None:
        """Release every reservation (2PC REVERSE)."""
        self._check_open()
        self._closed = True
        for src, dst, amount in reversed(self._staged):
            self._graph.channel(src, dst).release_hold(src, dst, amount)
        self._counters.payment_messages += len(self._staged)

    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError("payment session already committed or aborted")

    def __enter__(self) -> "PaymentSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.abort()
