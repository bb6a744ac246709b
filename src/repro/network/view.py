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

Because probes read :meth:`Channel.balance`, which is net of holds,
routers automatically plan against ``available = balance - in_flight``
whichever engine drives them.  The concurrent engine
(:mod:`repro.sim.concurrent`) subclasses this view to *defer*
settlement: its sessions place the same holds but hand them to the
event loop on commit instead of settling instantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InsufficientBalanceError, NoChannelError, ProtocolError
from repro.network.channel import NodeId
from repro.network.compact import CompactTopology
from repro.network.fees import FeePolicy, ZeroFee
from repro.network.graph import ChannelGraph, Path


def _observe_hops(graph: ChannelGraph, hops):
    """Per-hop (forward, reverse, fee) readings — closed channels are dead.

    A probe that reaches a closed channel observes zero capacity rather
    than erroring: the paper treats "no connectivity" the same as zero
    effective capacity (§3.3), which triggers path replacement.
    """
    balances = []
    reverse_balances = []
    fees = []
    for u, v in hops:
        if graph.has_channel(u, v):
            balances.append(graph.balance(u, v))
            reverse_balances.append(graph.balance(v, u))
            fees.append(graph.fee_policy(u, v))
        else:
            balances.append(0.0)
            reverse_balances.append(0.0)
            fees.append(ZeroFee())
    return balances, reverse_balances, fees


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

    def has_channel(self, a: NodeId, b: NodeId) -> bool:
        return self._graph.has_channel(a, b)

    def num_nodes(self) -> int:
        return self._graph.num_nodes()

    # ------------------------------------------------------------- probing

    def probe_path(self, path: Path) -> ProbeResult:
        """Probe every channel on ``path`` for live balance and fees.

        Costs ``len(path) - 1`` probe messages (one per hop).
        """
        hops = list(zip(path, path[1:]))
        if not hops:
            raise NoChannelError(path[0] if path else None, None)
        balances, reverse_balances, fees = _observe_hops(self._graph, hops)
        self.counters.probe_operations += 1
        self.counters.probe_messages += len(hops)
        return ProbeResult(
            tuple(path), tuple(balances), tuple(reverse_balances), tuple(fees)
        )

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


@dataclass
class _StagedHop:
    src: NodeId
    dst: NodeId
    amount: float


class PaymentSession:
    """Stages partial payments with holds; commits or aborts atomically.

    This models the AMP behaviour of §3.1: the receiver either receives all
    partial payments or none.  Reservations see balances net of earlier
    reservations in the same session, so two partial payments sharing a
    channel cannot jointly overdraw it.

    Extension surface: the concurrent engine's
    :class:`~repro.sim.concurrent.DeferredPaymentSession` overrides
    :meth:`commit` only — ``_staged`` (the placed hop holds),
    ``_transfers`` (the reserved paths), ``_closed``, and
    :meth:`_check_open` are the protected state a subclass may rely on.
    """

    def __init__(self, graph: ChannelGraph, counters: MessageCounters) -> None:
        self._graph = graph
        self._counters = counters
        self._staged: list[_StagedHop] = []
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
        placed: list[_StagedHop] = []
        self._counters.payment_attempts += 1
        for index, (u, v) in enumerate(zip(path, path[1:])):
            self._counters.payment_messages += 1
            hop_amount = amount if hop_amounts is None else hop_amounts[index]
            try:
                self._graph.channel(u, v).hold(u, v, hop_amount)
            except (InsufficientBalanceError, NoChannelError):
                for hop in reversed(placed):
                    self._graph.channel(hop.src, hop.dst).release_hold(
                        hop.src, hop.dst, hop.amount
                    )
                return False
            placed.append(_StagedHop(u, v, hop_amount))
        self._staged.extend(placed)
        self._transfers.append((tuple(path), amount))
        return True

    def probe(self, path: Path) -> ProbeResult:
        """Probe within the session (sees balances net of our own holds)."""
        self._check_open()
        hops = list(zip(path, path[1:]))
        balances, reverse_balances, fees = _observe_hops(self._graph, hops)
        self._counters.probe_operations += 1
        self._counters.probe_messages += len(hops)
        return ProbeResult(
            tuple(path), tuple(balances), tuple(reverse_balances), tuple(fees)
        )

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
        for hop in self._staged:
            # Through the graph, not the channel: the graph-level settle
            # feeds the fee controller's traffic signal (a no-op on
            # policy-free graphs).
            self._graph.settle_hold(hop.src, hop.dst, hop.amount)
        self._counters.payment_messages += len(self._staged)

    def abort(self) -> None:
        """Release every reservation (2PC REVERSE)."""
        self._check_open()
        self._closed = True
        for hop in reversed(self._staged):
            self._graph.channel(hop.src, hop.dst).release_hold(
                hop.src, hop.dst, hop.amount
            )
        self._counters.payment_messages += len(self._staged)

    def _check_open(self) -> None:
        if self._closed:
            raise ProtocolError("payment session already committed or aborted")

    def __enter__(self) -> "PaymentSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.abort()
