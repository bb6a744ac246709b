"""The channel graph — the offchain network substrate.

A :class:`ChannelGraph` stores the set of payment channels and exposes the
two views the routing layer needs:

* the *structural topology* (who has a channel with whom), which the paper
  assumes is locally available at every node (§3.1, "Locally available
  topology"); and
* the *ground-truth balances*, which routers are **not** allowed to read
  directly — they must probe through a :class:`repro.network.view.NetworkView`.

Multi-path payments execute atomically: :meth:`ChannelGraph.execute` nets
flows per channel (partial payments in opposite directions of the same
channel offset each other, exactly the capacity constraint of program (1)
in §3.2) and either applies every movement or none.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import (
    ChannelError,
    InsufficientBalanceError,
    NoChannelError,
)
from repro.network.channel import Channel, NodeId, OwnerCell
from repro.network.compact import CompactTopology
from repro.network.fees import (
    DEFAULT_POLICY,
    ChannelPolicy,
    FeePolicy,
    LinearFee,
    ZeroFee,
    hop_revenue,
    sample_paper_fee,
)

_EPS = 1e-9

Path = list[NodeId]

#: What a probe reads at a closed hop: no capacity either way, no fee.
_CLOSED_HOP = (0.0, 0.0, ZeroFee())


def _carrying(record: FeePolicy, rate: float | None) -> FeePolicy:
    """``record`` as read at its live ``rate`` (``None``: ``record`` holds it).

    The record itself while the rate is the one it carries; otherwise a
    copy of it, or of :data:`DEFAULT_POLICY` for a legacy record, with
    the live rate.
    """
    if rate is None:
        return record
    policy = record if isinstance(record, ChannelPolicy) else DEFAULT_POLICY
    return record if rate == policy.fee_rate else policy.with_fee_rate(rate)


def _canonical_direction(
    u: NodeId, v: NodeId
) -> tuple[tuple[NodeId, NodeId], float]:
    """Order-robust canonical key for one directed hop.

    Same-type endpoints compare natively; mixed-type pairs (an ``int``
    node and a ``str`` node in one graph) would raise ``TypeError`` on
    ``<=``, so fall back to comparing ``(type name, repr)`` — any total
    order works as long as both directions of a channel agree on it.
    """
    try:
        forward = (u, v) <= (v, u)
    except TypeError:
        forward = (type(u).__name__, repr(u)) <= (type(v).__name__, repr(v))
    return ((u, v), 1.0) if forward else ((v, u), -1.0)


@dataclass(frozen=True)
class Transfer:
    """A partial payment: ``amount`` routed along ``path``."""

    path: tuple[NodeId, ...]
    amount: float

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ChannelError(f"path too short: {self.path!r}")
        if self.amount < 0:
            raise ChannelError(f"negative transfer amount {self.amount!r}")

    def hops(self) -> Iterator[tuple[NodeId, NodeId]]:
        return zip(self.path, self.path[1:])


class _SiblingSnapshot:
    """What copies of one unchanged graph share: its snapshot and rows.

    ``snapshot`` is ``None`` until the first copy compacts.  ``rows``
    are the clone-order rows the source's first copy built by walking
    it, ``channels`` their channel count; every later copy starts from
    them, and no graph writes into them (see :meth:`ChannelGraph.copy`).
    ``rows`` is ``None`` until that walk, and again once the source
    twins a channel, which the rows then no longer hold, or when the
    walk met a hold.  Balances and fees live in the channels, which the
    copies share until written.
    """

    __slots__ = ("snapshot", "rows", "channels")

    def __init__(self) -> None:
        self.snapshot: CompactTopology | None = None
        self.rows: dict[NodeId, dict[NodeId, Channel]] | None = None
        self.channels = 0


class ChannelGraph:
    """An offchain network: nodes connected by bidirectional channels."""

    #: Class-wide switch for incremental compact-topology maintenance.
    #: When True (the default), :meth:`compact` derives the next snapshot
    #: from the cached one by applying the logged channel deltas
    #: (:meth:`CompactTopology.apply_delta`) and only falls back to a
    #: full ``from_adjacency`` rebuild at the compaction threshold.
    #: Setting it to False forces the full rebuild on every topology
    #: change — the reference that ``benchmarks/test_bench_churn.py``
    #: times against and ``tests/property/test_compact_incremental.py``
    #: checks against.  Both paths are observably identical; that
    #: property suite fuzzes the equivalence.
    incremental_compact = True

    def __init__(self) -> None:
        self._adj: dict[NodeId, dict[NodeId, Channel]] = {}
        #: Bumped on every structural change (node/channel added or
        #: removed); lets the cached :class:`CompactTopology` know when it
        #: is stale.  Balance changes do not move it.
        self._topology_version = 0
        self._compact: CompactTopology | None = None
        #: Structural ops since the cached snapshot was built, in
        #: application order — the delta stream :meth:`compact` replays.
        #: Only populated while a snapshot exists to replay against.
        self._pending_deltas: list[tuple] = []
        #: Bumped by :meth:`set_channel_policy` and by each
        #: :meth:`reprice`; zero means no :class:`ChannelPolicy` was ever
        #: assigned, and every fee- and policy-aware branch in the
        #: library stays dormant (the golden-pinned legacy behaviour).
        self._policy_version = 0
        #: Directions opened since the cached snapshot was built.  That
        #: snapshot has no slot for them, or a closed channel's, so their
        #: records hold their rates (see :meth:`_live_rate`).
        self._unslotted: set[tuple[NodeId, NodeId]] = set()
        #: Per-directed-hop volume settled since the last fee-controller
        #: tick — the observed load a fee-market dynamics model prices
        #: against.  Only populated on policy-aware graphs.
        self.traffic: dict[tuple[NodeId, NodeId], float] = {}
        #: Optional fee-market controller (see
        #: :mod:`repro.scenarios.catalog`); invoked by
        #: :class:`repro.network.dynamics.GossipSchedule` at gossip ticks.
        self.fee_controller = None
        #: The fee controller's index of priced direction slots, kept
        #: for the snapshot it was built on (see
        #: :class:`repro.network.feemarket.FeeMarketController`).
        self.priced_slots = None
        #: On a source: the :class:`_SiblingSnapshot` its copies share.
        self._copies: _SiblingSnapshot | None = None
        #: On a copy: that shared record, until the first :meth:`compact`.
        #: Both are dropped by the next structural change.
        self._siblings: _SiblingSnapshot | None = None
        #: The cell of the channels this graph may write in place; any
        #: other channel in its rows is shared and twinned when written.
        self._owner = OwnerCell()
        #: On a copy that started from its siblings' shared rows: the
        #: nodes whose rows it has made its own (see :meth:`_row`).
        #: ``None`` on a graph that shares no row.
        self._private: set[NodeId] | None = None

    # ------------------------------------------------------------ topology

    def _log_delta(self, op: tuple) -> None:
        """Record one structural op for incremental snapshot replay.

        The op also ends sibling sharing on both sides (see :meth:`copy`):
        copies taken from now on have a different adjacency, and a copy
        that changes no longer has its siblings' adjacency.
        """
        self._copies = self._siblings = None
        if self._compact is not None:
            self._pending_deltas.append(op)
            if op[0] == "open":
                _, a, b = op
                self._unslotted.update(((a, b), (b, a)))

    def add_node(self, node: NodeId) -> None:
        if node not in self._adj:
            self._adj[node] = {}
            if self._private is not None:
                self._private.add(node)
            self._topology_version += 1
            self._log_delta(("node", node))

    def _row(self, node: NodeId) -> dict[NodeId, Channel]:
        """``node``'s row, made this graph's own for writing.

        A row this copy still shares with its siblings is replaced by a
        copy of it first, in the same order.
        """
        row = self._adj[node]
        private = self._private
        if private is not None and node not in private:
            row = self._adj[node] = dict(row)
            private.add(node)
        return row

    def add_channel(
        self,
        a: NodeId,
        b: NodeId,
        balance_ab: float,
        balance_ba: float,
        fee_ab: FeePolicy | None = None,
        fee_ba: FeePolicy | None = None,
    ) -> Channel:
        """Open a channel between ``a`` and ``b`` with the given deposits."""
        if self.has_channel(a, b):
            raise ChannelError(f"channel between {a!r} and {b!r} already exists")
        channel = Channel(
            a,
            b,
            balance_ab,
            balance_ba,
            fee_ab=fee_ab if fee_ab is not None else ZeroFee(),
            fee_ba=fee_ba if fee_ba is not None else ZeroFee(),
        )
        channel._owner = self._owner
        self.add_node(a)
        self.add_node(b)
        self._row(a)[b] = channel
        self._row(b)[a] = channel
        self._topology_version += 1
        self._log_delta(("open", a, b))
        return channel

    def remove_channel(self, a: NodeId, b: NodeId) -> None:
        """Close the channel between ``a`` and ``b``."""
        if not self.has_channel(a, b):
            raise NoChannelError(a, b)
        del self._row(a)[b]
        del self._row(b)[a]
        self._topology_version += 1
        self._log_delta(("close", a, b))

    def has_node(self, node: NodeId) -> bool:
        return node in self._adj

    def has_channel(self, a: NodeId, b: NodeId) -> bool:
        return a in self._adj and b in self._adj[a]

    @property
    def nodes(self) -> list[NodeId]:
        return list(self._adj)

    def num_nodes(self) -> int:
        return len(self._adj)

    def num_channels(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def neighbors(self, node: NodeId) -> list[NodeId]:
        if node not in self._adj:
            raise NoChannelError(node, None)
        return list(self._adj[node])

    def degree(self, node: NodeId) -> int:
        return len(self._adj.get(node, {}))

    def channels(self) -> Iterator[Channel]:
        """Iterate over each channel exactly once, for reading.

        Channels come node-major, each from the row of whichever of its
        endpoints comes first.  A yielded channel may be shared with a
        copy of the graph: write it through the graph, which may swap a
        private twin into both rows during the walk; the walk still
        yields each endpoint pair once.
        """
        walked: set[NodeId] = set()
        for u, nbrs in self._adj.items():
            walked.add(u)
            for v, channel in nbrs.items():
                if v not in walked:
                    yield channel

    def channel(self, a: NodeId, b: NodeId) -> Channel:
        """The channel between ``a`` and ``b``, writable by this graph.

        A channel still shared with a copy is first replaced by a
        private twin.  To only read, use :meth:`balance`, :meth:`held`,
        :meth:`total_capacity` or the policy readers, which never copy
        one.
        """
        try:
            channel = self._adj[a][b]
        except KeyError:
            raise NoChannelError(a, b) from None
        if channel._owner is not self._owner:
            channel = self._own(channel)
        return channel

    def _owned_channels(self) -> Iterator[Channel]:
        """:meth:`channels`, each made this graph's own for writing."""
        owner = self._owner
        for channel in self.channels():
            yield channel if channel._owner is owner else self._own(channel)

    def _lookup(self, a: NodeId, b: NodeId) -> Channel:
        """The channel between ``a`` and ``b``, possibly shared: read only."""
        try:
            return self._adj[a][b]
        except KeyError:
            raise NoChannelError(a, b) from None

    def _own(self, channel: Channel) -> Channel:
        """Swap a private twin of shared ``channel`` into both rows.

        Later copies must hold the twin, so the next one walks this
        graph again instead of starting from the rows its earlier
        copies share, which hold ``channel``.
        """
        if self._copies is not None:
            self._copies.rows = None
        twin = channel._twin(self._owner)
        self._row(channel.a)[channel.b] = twin
        self._row(channel.b)[channel.a] = twin
        return twin

    def adjacency(self) -> dict[NodeId, list[NodeId]]:
        """Structural topology: node -> neighbor list (stable order)."""
        return {node: list(nbrs) for node, nbrs in self._adj.items()}

    @property
    def topology_version(self) -> int:
        """Monotone counter of structural (channel open/close) changes."""
        return self._topology_version

    def compact(self) -> CompactTopology:
        """Interned CSR snapshot of the structural topology (cached).

        Refreshed lazily whenever :attr:`topology_version` has moved
        since the last call.  With :attr:`incremental_compact` on (the
        default) the refresh **applies the logged channel deltas** to
        the cached snapshot (O(touched) instead of O(V+E); see
        :meth:`CompactTopology.apply_delta`), falling back to a full
        ``from_adjacency`` rebuild only on the first call, at the
        compaction threshold, or when the flag is off.  The first call
        on an unchanged :meth:`copy` instead forks the snapshot its
        sibling copies share (see :meth:`copy`).  Either way the
        returned snapshot is a new object whose node and neighbor order
        match :meth:`adjacency`, so a path function gives the same
        result on either form: it interns the mapping into the same
        snapshot (see :mod:`repro.network.paths`).
        """
        cached = self._compact
        if cached is not None and cached.version == self._topology_version:
            self._refresh_fee_rates(cached)
            return cached
        siblings = self._siblings
        self._siblings = None
        pending = self._pending_deltas
        if siblings is not None:
            # First call on a copy nobody has changed since it was taken:
            # every sibling copy has this same adjacency, so they all
            # fork one snapshot that the first of them builds.
            if siblings.snapshot is None:
                siblings.snapshot = self._rebuild()
            snapshot = siblings.snapshot.fork()
        elif (
            cached is not None
            and pending
            and self.incremental_compact
            and not cached.should_compact(len(pending))
        ):
            snapshot = cached.apply_delta(
                pending,
                version=self._topology_version,
                rate_of=self._opened_rate,
            )
        else:
            snapshot = self._rebuild()
        # Before the switch: the live rates are read off the old snapshot.
        self._refresh_fee_rates(snapshot)
        self._pending_deltas = []
        self._unslotted = set()
        self._compact = snapshot
        return snapshot

    def _opened_rate(self, src: NodeId, dst: NodeId) -> float:
        """A delta-opened slot's record rate (0.0 if closed again since)."""
        if not self.has_channel(src, dst):
            return 0.0
        return self.channel_policy(src, dst).fee_rate

    def _rebuild(self) -> CompactTopology:
        """A full snapshot, interned from the graph's own rows."""
        return CompactTopology.from_adjacency(
            self._adj, version=self._topology_version
        )

    def _refresh_fee_rates(self, snapshot: CompactTopology) -> None:
        """Install the snapshot's ``fee_rate`` array from the live rates.

        O(E), but only runs on policy-aware graphs whose snapshot's
        rates predate :attr:`policy_version`: a fresh rebuild or fork
        (neither carries rates), or a :meth:`set_channel_policy` since.
        A :meth:`reprice` stamps the snapshot it writes, and
        delta-derived snapshots share their base's array with opened
        slots filled in, so neither reinstalls here.  Each rate is read
        as :meth:`channel_policy` reads it, so a rebuild, which
        renumbers every slot, carries the cached snapshot's rates over.
        """
        if self._policy_version and (
            snapshot.policy_version != self._policy_version
        ):
            snapshot.set_fee_rates(
                snapshot.fee_rates_from(self.channel_policy),
                self._policy_version,
            )

    # ------------------------------------------------------------ balances

    def balance(self, src: NodeId, dst: NodeId) -> float:
        """Ground-truth spendable balance on the directed edge.

        Net of in-flight holds: while the concurrent engine has escrow
        outstanding on a hop, this (and therefore every probe) reports
        ``deposit - held`` — the "available balance" of the concurrency
        model (docs/CONCURRENCY.md).
        """
        # self._lookup(), inlined: every probe reads here.
        try:
            channel = self._adj[src][dst]
        except KeyError:
            raise NoChannelError(src, dst) from None
        return channel.balance(src, dst)

    # --------------------------------------------------------------- holds

    def hold(self, src: NodeId, dst: NodeId, amount: float) -> bool:
        """Escrow ``amount`` on the directed edge (HTLC lock phase).

        ``False`` (nothing held) when the balance cannot cover it; see
        :meth:`Channel.hold`.
        """
        return self.channel(src, dst).hold(src, dst, amount)

    def settle_hold(self, src: NodeId, dst: NodeId, amount: float) -> None:
        """Convert a prior hold on the directed edge into a transfer."""
        self.channel(src, dst).settle_hold(src, dst, amount)
        if self._policy_version:
            self.note_traffic(src, dst, amount)

    def note_traffic(self, src: NodeId, dst: NodeId, amount: float) -> None:
        """Accrue settled volume for the fee controller's load signal.

        Only populated on policy-aware graphs (fee-free runs never touch
        the dict); a fee-market controller reads and clears
        :attr:`traffic` at each gossip tick.
        """
        if self._policy_version and amount > 0:
            key = (src, dst)
            self.traffic[key] = self.traffic.get(key, 0.0) + amount

    def release_hold(self, src: NodeId, dst: NodeId, amount: float) -> None:
        """Cancel a prior hold on the directed edge, freeing the funds."""
        self.channel(src, dst).release_hold(src, dst, amount)

    def held(self, src: NodeId, dst: NodeId) -> float:
        """Funds currently escrowed on the directed edge."""
        return self._lookup(src, dst).held(src, dst)

    def total_held(self) -> float:
        """All funds currently escrowed network-wide (both directions).

        Zero whenever no payments are in flight — the engine-level
        invariant the concurrent-engine tests assert after every run.
        """
        return sum(channel.total_held() for channel in self.channels())

    def total_capacity(self, a: NodeId, b: NodeId) -> float:
        return self._lookup(a, b).total_capacity()

    def network_funds(self) -> float:
        """Total funds locked across all channels — conserved by payments."""
        return sum(channel.total_capacity() for channel in self.channels())

    def fee_policy(self, src: NodeId, dst: NodeId) -> FeePolicy:
        """The direction's fee record, carrying its live rate.

        The channel's own record while the fee market has not moved the
        direction's rate; otherwise a copy of it (of
        :data:`DEFAULT_POLICY` for a legacy record) at the live rate.
        Nothing is written back.
        """
        # self._lookup(), inlined, and no rate lookup on a graph that is
        # not policy-aware: every payment's fee on such a graph reads here.
        try:
            channel = self._adj[src][dst]
        except KeyError:
            raise NoChannelError(src, dst) from None
        record = channel.fee_ab if src == channel.a else channel.fee_ba
        snapshot = self._rate_snapshot() if self._policy_version else None
        if snapshot is None:
            return record
        return _carrying(record, self._live_rate(snapshot, src, dst))

    def probe_readings(
        self, path: Path
    ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[FeePolicy, ...]]:
        """Per-hop forward balances, reverse balances and forward fees.

        What a probe walking ``path`` observes: each hop's channel is
        looked up once, both balances are net of holds, and the forward
        fee is the record :meth:`fee_policy` returns.  A closed hop reads
        0.0 both ways and :class:`ZeroFee` rather than erroring: the
        paper treats "no connectivity" as zero effective capacity
        (§3.3), which triggers path replacement.  A path of fewer than
        two nodes raises :class:`NoChannelError`.
        """
        if len(path) < 2:
            raise NoChannelError(path[0] if path else None, None)
        adjacency = self._adj
        # No rate lookup on a graph that is not policy-aware, which every
        # probe of the fee-free workloads reads.
        snapshot = self._rate_snapshot() if self._policy_version else None
        readings = []
        for u, v in zip(path, path[1:]):
            try:
                channel = adjacency[u][v]
            except KeyError:
                readings.append(_CLOSED_HOP)
                continue
            reading = channel.readings(u)
            if snapshot is not None:
                balance, reverse, record = reading
                rate = self._live_rate(snapshot, u, v)
                reading = (balance, reverse, _carrying(record, rate))
            readings.append(reading)
        balances, reverse_balances, fees = zip(*readings)
        return balances, reverse_balances, fees

    # ------------------------------------------------------- BOLT policies

    @property
    def policy_aware(self) -> bool:
        """True once any :class:`ChannelPolicy` was assigned.

        Gates every fee-aware branch (compounded fees, per-hop escrow
        amounts, the snapshot's rate array): graphs that never saw a policy
        behave byte-identically to the pre-policy library.
        """
        return self._policy_version > 0

    @property
    def policy_version(self) -> int:
        """Monotone counter of policy changes (fee gossip epochs).

        Moves once per :meth:`set_channel_policy` call and once per
        :meth:`reprice` tick, however many directions that tick moved.
        """
        return self._policy_version

    def set_channel_policy(
        self, src: NodeId, dst: NodeId, policy: ChannelPolicy
    ) -> None:
        """Assign the ``src -> dst`` direction's BOLT #7 policy record.

        Bumps :attr:`policy_version`, which makes the records the home
        of every rate until the next :meth:`compact` reinstalls the
        snapshot's per-slot ``fee_rate`` array from them; so every live
        rate is first written into its record.
        """
        if not isinstance(policy, ChannelPolicy):
            raise ChannelError(
                f"set_channel_policy needs a ChannelPolicy, got {policy!r}"
            )
        self._write_rates()
        self.channel(src, dst).set_fee_policy(src, dst, policy)
        self._policy_version += 1

    def channel_policy(self, src: NodeId, dst: NodeId) -> ChannelPolicy:
        """The direction's policy record (free/unbounded when unset).

        Legacy :class:`FeePolicy` assignments (``assign_paper_fees``)
        are *not* policy records: on a policy-aware graph they read as
        :data:`DEFAULT_POLICY`, keeping the two fee systems disjoint.
        The record carries the direction's live rate (see
        :meth:`fee_policy`); a :class:`Channel`'s own fields can lag
        the fee market, so read records through the graph.
        """
        policy = self.fee_policy(src, dst)
        return policy if isinstance(policy, ChannelPolicy) else DEFAULT_POLICY

    def fee_rates(self) -> tuple[CompactTopology, list[float]]:
        """The current snapshot and its per-slot ``fee_rate`` array.

        On a graph that is not policy-aware yet, the rates are read from
        the records and nothing is installed until a :meth:`reprice`.
        """
        snapshot = self.compact()
        rates = snapshot.fee_rates
        if rates is None:
            rates = snapshot.fee_rates_from(self.channel_policy)
        return snapshot, rates

    def reprice(self, snapshot: CompactTopology, rates: list[float]) -> None:
        """Make ``rates`` the live per-slot ``fee_rate`` array: one epoch.

        ``snapshot`` is the one :meth:`fee_rates` just returned, and
        ``rates`` a new list (older snapshots keep the old one).
        :attr:`policy_version` moves once.  No record is written: the
        fee readers read each rate off the array.
        """
        self._policy_version += 1
        snapshot.set_fee_rates(rates, self._policy_version)

    def _rate_snapshot(self) -> CompactTopology | None:
        """The snapshot whose ``fee_rate`` array holds the live rates.

        ``None`` while the records hold every rate: on a graph that is
        not policy-aware, before its first :meth:`compact`, and from a
        :meth:`set_channel_policy` or a legacy assigner until the next
        :meth:`compact` reinstalls the array.
        """
        version = self._policy_version
        snapshot = self._compact
        if version and snapshot is not None and (
            snapshot.policy_version == version
        ):
            return snapshot
        return None

    def _live_rate(
        self, snapshot: CompactTopology, src: NodeId, dst: NodeId
    ) -> float | None:
        """An open direction's rate in the array of :meth:`_rate_snapshot`.

        ``None`` for a channel opened since ``snapshot`` was built: the
        snapshot has no slot for it, or a closed channel's, so its
        record holds its rate.
        """
        if (src, dst) in self._unslotted:
            return None
        index = snapshot._index
        return snapshot.fee_rates[snapshot.slot_of(index[src], index[dst])]

    def _write_rates(self) -> None:
        """Write every live rate into its direction's record.

        Before :meth:`copy` shares the records with its clone, and before
        :meth:`set_channel_policy` makes them the rates' home.  A channel
        shared with an earlier copy is twinned first.
        """
        if self._rate_snapshot() is None:
            return
        for u, row in self._adj.items():
            for v in row:
                record = self.fee_policy(u, v)
                if record is not row[v].fee_policy(u, v):
                    self.channel(u, v).set_fee_policy(u, v, record)

    def path_hop_amounts(self, path: Path, amount: float) -> list[float]:
        """Per-edge amounts delivering ``amount`` (BOLT fee recursion).

        :func:`~repro.network.fees.hop_amounts` over the hops' policy
        records at their live rates (a legacy record prices as
        :data:`DEFAULT_POLICY`), in its order (receiver to sender) and
        float association, without building a record.  A closed hop
        raises :class:`NoChannelError`.
        """
        adjacency = self._adj
        snapshot = self._rate_snapshot()
        prices = []
        for u, v in zip(path, path[1:]):
            try:
                channel = adjacency[u][v]
            except KeyError:
                raise NoChannelError(u, v) from None
            record = channel.fee_ab if u == channel.a else channel.fee_ba
            if not isinstance(record, ChannelPolicy):
                record = DEFAULT_POLICY
            rate = None if snapshot is None else self._live_rate(snapshot, u, v)
            prices.append(
                (record.base_fee, record.fee_rate if rate is None else rate)
            )
        amounts = [0.0] * len(prices)
        a = amount
        for i in range(len(prices) - 1, 0, -1):
            amounts[i] = a
            if a > 0:
                base, rate = prices[i]
                a = a + (base + rate * a)
        if prices:
            amounts[0] = a
        return amounts

    def path_fee(self, path: Path, amount: float) -> float:
        """Total fee for routing ``amount`` over ``path``.

        Policy-aware graphs compound per BOLT #7 (every hop forwards
        ``amount + downstream_fees``); legacy graphs keep the paper's
        flat per-hop sum, byte-identical to the pre-policy library.
        """
        if self.policy_aware:
            amounts = self.path_hop_amounts(path, amount)
            return amounts[0] - amount if amounts else 0.0
        return sum(
            self.fee_policy(u, v).fee(amount) for u, v in zip(path, path[1:])
        )

    def path_fee_breakdown(self, path: Path, amount: float) -> dict:
        """Per-node fee revenue for delivering ``amount`` along ``path``.

        Empty on policy-free graphs (nobody earns).  The engines sum
        this over settled payments to report ``hub_revenue``.
        """
        if not self.policy_aware:
            return {}
        return hop_revenue(path, self.path_hop_amounts(path, amount))

    def path_bottleneck(self, path: Path) -> float:
        """Minimum directional balance along ``path`` (its effective capacity)."""
        return min(self.balance(u, v) for u, v in zip(path, path[1:]))

    # ------------------------------------------------------------ execution

    def execute(self, transfers: Iterable[Transfer]) -> None:
        """Atomically apply a set of partial payments.

        Flows in opposite directions of the same channel offset each other:
        the feasibility condition per channel is
        ``sum(flow u->v) - sum(flow v->u) <= balance(u, v)``, matching the
        capacity constraint of optimization program (1).  Either all
        transfers apply or none do (the AMP atomicity assumption of §3.1).
        """
        policy_aware = self.policy_aware
        net: dict[tuple[NodeId, NodeId], float] = {}
        hop_loads: list[tuple[NodeId, NodeId, float]] = []
        for transfer in transfers:
            # Policy-aware graphs escrow the BOLT per-hop amounts: every
            # hop carries the delivered amount plus all downstream fees,
            # which intermediate nodes pocket on settlement.
            amounts = (
                self.path_hop_amounts(list(transfer.path), transfer.amount)
                if policy_aware
                else None
            )
            for index, (u, v) in enumerate(transfer.hops()):
                if not self.has_channel(u, v):
                    raise NoChannelError(u, v)
                key, sign = _canonical_direction(u, v)
                hop_amount = (
                    amounts[index] if amounts is not None else transfer.amount
                )
                net[key] = net.get(key, 0.0) + sign * hop_amount
                if policy_aware:
                    hop_loads.append((u, v, hop_amount))

        # Feasibility check against current balances, before touching state.
        for (u, v), flow in net.items():
            if flow > _EPS and flow > self.balance(u, v) + _EPS:
                raise InsufficientBalanceError(u, v, flow, self.balance(u, v))
            if flow < -_EPS and -flow > self.balance(v, u) + _EPS:
                raise InsufficientBalanceError(v, u, -flow, self.balance(v, u))

        # All feasible: apply the netted flows.  The feasibility loop
        # above checked every channel against *current* balances, but a
        # concurrently-placed hold (or a numerically marginal flow) can
        # still make an individual transfer raise mid-apply — unwind the
        # flows already applied so no partial settle is ever observable.
        applied: list[tuple[NodeId, NodeId, float]] = []
        try:
            for (u, v), flow in net.items():
                if flow > _EPS:
                    self.channel(u, v).transfer(u, v, flow)
                    applied.append((u, v, flow))
                elif flow < -_EPS:
                    self.channel(u, v).transfer(v, u, -flow)
                    applied.append((v, u, -flow))
        except Exception:
            for u, v, flow in reversed(applied):
                self.channel(u, v).transfer(v, u, flow)
            raise
        for u, v, hop_amount in hop_loads:
            self.note_traffic(u, v, hop_amount)

    def execute_single(self, path: Path, amount: float) -> None:
        """Convenience wrapper: atomically send ``amount`` along one path."""
        self.execute([Transfer(tuple(path), amount)])

    # ------------------------------------------------------------ utilities

    def scale_balances(self, factor: float) -> None:
        """Multiply every directional balance by ``factor``.

        Implements the "capacity scale factor" axis of Figs 6 and 7.
        """
        if not (factor > 0 and math.isfinite(factor)):
            raise ChannelError(
                f"scale factor must be positive and finite, got {factor!r}"
            )
        for channel in self._owned_channels():
            channel.balance_ab *= factor
            channel.balance_ba *= factor

    def assign_paper_fees(self, rng: random.Random) -> None:
        """Assign the Fig-9 fee mix independently to every channel direction."""
        self._overwrite_records()
        for channel in self._owned_channels():
            channel.fee_ab = sample_paper_fee(rng)
            channel.fee_ba = sample_paper_fee(rng)

    def _overwrite_records(self) -> None:
        """Prepare for a legacy assigner to replace every record.

        No live rate needs writing, because every record is replaced.  A
        policy-aware graph moves :attr:`policy_version`, so the new
        records hold the rates until the next :meth:`compact` reinstalls
        the ``fee_rate`` array from them.
        """
        if self._policy_version:
            self._policy_version += 1

    def copy(self) -> ChannelGraph:
        """Copy of topology, balances, and fee policies; channels shared.

        The clone's rows are built node-major (each channel when first
        met walking the source's nodes and neighbor rows), but they
        point at the source's :class:`Channel` objects: no channel is
        allocated.  The source's :class:`OwnerCell` is retired, so every
        channel becomes shared, and whichever graph first writes one
        (through :meth:`channel`, the holds, :meth:`execute`, the policy
        and fee writers, or :meth:`scale_balances`) swaps a private twin
        into its own rows; reads never copy.  Holds do not carry over: a
        channel with escrow outstanding gets a zero-hold twin in the
        clone right away.  The clone's adjacency order — and therefore
        BFS/Yen tie-breaking — can differ from the source's insertion
        order, and its :attr:`topology_version` is its node count plus
        its channel count, as if every node and then every channel had
        been added one by one.

        The rows are shared the same way.  Only the first copy of a
        source walks it; the walked rows are kept on the record its
        copies share, and that copy and every later one start from
        them: a new mapping of the same row dicts.  A graph copies a row
        the first time it writes it (:meth:`_own`, :meth:`add_channel`,
        :meth:`remove_channel`), so the kept rows never change.  The next
        copy walks again after a structural change on the source, after
        the source twins a channel (its rows then hold the twin), and
        after a walk that met a hold, whose clone owns its twins and so
        its rows; row order is the walk's either way.

        The source's own compact snapshot does not carry over: it
        follows the source's order, not the clone's.  Instead, every
        copy taken while the source's topology stays unchanged has the
        same adjacency, so those siblings share one snapshot of it.  The
        first sibling to call :meth:`compact` builds it by the
        full-rebuild path and each sibling's first :meth:`compact`
        returns its own :meth:`CompactTopology.fork` of it.  A clone
        changed before its first :meth:`compact` rebuilds on its own, as
        any graph does.  The clone has no ``fee_rate`` array until then,
        so the source first writes every live rate into its record (the
        one place besides :meth:`set_channel_policy` that does).
        """
        self._write_rates()
        self._owner.live = False
        self._owner = OwnerCell()
        clone = ChannelGraph()
        copies = self._copies
        if copies is None:
            copies = self._copies = _SiblingSnapshot()
        rows, channels = copies.rows, copies.channels
        shared = rows is not None
        if not shared:
            owner = clone._owner
            rows = {node: {} for node in self._adj}
            channels = 0
            shared = True
            for u, nbrs in self._adj.items():
                row = rows[u]
                for v, channel in nbrs.items():
                    if v in row:  # shared from v's side already
                        continue
                    if channel._held_ab or channel._held_ba:
                        # A twin only this clone may hold: no sibling
                        # can start from these rows.
                        channel = channel._twin(owner, holds=False)
                        shared = False
                    row[v] = channel
                    rows[v][u] = channel
                    channels += 1
            if shared:
                copies.rows, copies.channels = rows, channels
        if shared:
            clone._adj = dict(rows)
            clone._private = set()
        else:
            clone._adj = rows
        clone._topology_version = len(rows) + channels
        clone._siblings = copies
        # Policy records travel with the fee policies above; the version
        # counter (and any fee controller) must follow so the clone stays
        # policy-aware.  Per-tick traffic deliberately starts empty.
        clone._policy_version = self._policy_version
        clone.fee_controller = self.fee_controller
        return clone

    # ------------------------------------------------------------ interop

    def to_networkx(self):
        """Export as a directed ``networkx.DiGraph`` with balance attributes."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._adj)
        for channel in self.channels():
            a, b = channel.a, channel.b
            graph.add_edge(
                a, b, balance=channel.balance(a, b), fee=self.fee_policy(a, b)
            )
            graph.add_edge(
                b, a, balance=channel.balance(b, a), fee=self.fee_policy(b, a)
            )
        return graph

    @classmethod
    def from_networkx(cls, graph) -> ChannelGraph:
        """Build from a ``networkx`` graph.

        Directed graphs use each edge's ``balance`` attribute per direction;
        undirected graphs split each edge's ``capacity`` (default 1.0) evenly.
        """
        result = cls()
        for node in graph.nodes:
            result.add_node(node)
        if graph.is_directed():
            seen: set[tuple[NodeId, NodeId]] = set()
            for u, v, data in graph.edges(data=True):
                if (v, u) in seen or (u, v) in seen:
                    continue
                seen.add((u, v))
                reverse = graph.get_edge_data(v, u) or {}
                result.add_channel(
                    u,
                    v,
                    float(data.get("balance", 0.0)),
                    float(reverse.get("balance", 0.0)),
                    fee_ab=data.get("fee"),
                    fee_ba=reverse.get("fee"),
                )
        else:
            for u, v, data in graph.edges(data=True):
                half = float(data.get("capacity", 1.0)) / 2.0
                result.add_channel(u, v, half, half)
        return result

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[NodeId, NodeId, float, float]],
        default_fee: FeePolicy | None = None,
    ) -> ChannelGraph:
        """Build from ``(a, b, balance_ab, balance_ba)`` tuples."""
        result = cls()
        fee = default_fee if default_fee is not None else ZeroFee()
        for a, b, bal_ab, bal_ba in edges:
            result.add_channel(a, b, bal_ab, bal_ba, fee_ab=fee, fee_ba=fee)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChannelGraph(nodes={self.num_nodes()}, "
            f"channels={self.num_channels()})"
        )


def assign_uniform_fees(
    graph: ChannelGraph, base: float, rate: float
) -> None:
    """Give every channel direction the same :class:`LinearFee`."""
    policy = LinearFee(base=base, rate=rate)
    graph._overwrite_records()
    for channel in graph._owned_channels():
        channel.fee_ab = policy
        channel.fee_ba = policy
