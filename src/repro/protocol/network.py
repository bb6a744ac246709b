"""The simulated message network connecting protocol nodes.

Replaces the paper's TCP mesh (§5.2): every :meth:`send` hands the
recipient its own copy of the message, schedules delivery after a
per-hop propagation latency, and charges a per-message processing delay
at the receiving node.  Because the testbed (like the paper's) plays one
payment at a time, the elapsed simulated time of a payment is its
processing delay — the Fig 12c/12d/13c/13d metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.network.channel import NodeId
from repro.network.graph import ChannelGraph
from repro.protocol.events import EventQueue
from repro.protocol.messages import Message, MessageType
from repro.protocol.node import ProtocolNode

#: Default per-hop propagation latency (simulated seconds).
DEFAULT_LATENCY = 1e-3
#: Default per-message processing delay at a node (simulated seconds).
DEFAULT_PROCESSING = 1e-4


@dataclass
class NetworkStats:
    """Message accounting for the whole network."""

    delivered: int = 0
    dropped: int = 0
    # Keyed by the type's name: a str caches its hash, where a member
    # would run the Python-level ``Enum.__hash__`` on every message.
    _by_name: dict[str, int] = field(default_factory=dict, init=False)

    def record(self, message: Message) -> None:
        self.delivered += 1
        name = message.mtype._name_
        self._by_name[name] = self._by_name.get(name, 0) + 1

    @property
    def by_type(self) -> dict[MessageType, int]:
        """Delivered messages per type, in order of first delivery."""
        return {MessageType[name]: count for name, count in self._by_name.items()}


class ProtocolNetwork:
    """Nodes + channels + event queue: the in-process testbed fabric.

    ``loss_rate`` drops each transmitted message independently with the
    given probability (default 0: reliable, like the paper's TCP mesh).
    Senders recover losses by retransmitting whole rounds — see
    :class:`~repro.protocol.driver.PaymentDriver` — which is safe because
    every node handler is idempotent per TransID.
    """

    def __init__(
        self,
        graph: ChannelGraph,
        latency: float = DEFAULT_LATENCY,
        processing_delay: float = DEFAULT_PROCESSING,
        loss_rate: float = 0.0,
        loss_rng=None,
    ) -> None:
        if latency < 0 or processing_delay < 0:
            raise ProtocolError("latency and processing delay must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ProtocolError("loss_rate must be in [0, 1)")
        import random as _random

        self.graph = graph
        self.latency = latency
        self.processing_delay = processing_delay
        self.loss_rate = loss_rate
        self.loss_rng = loss_rng if loss_rng is not None else _random.Random(0)
        self.queue = EventQueue()
        self.stats = NetworkStats()
        self.nodes: dict[NodeId, ProtocolNode] = {
            node: ProtocolNode(node, graph) for node in graph.nodes
        }

    # ------------------------------------------------------------ plumbing

    def node(self, node_id: NodeId) -> ProtocolNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ProtocolError(f"unknown node {node_id!r}") from None

    def send(self, message: Message) -> None:
        """Put a message on the wire toward ``message.current``.

        ``Message`` is frozen and its one mutable field, ``payload``, is
        copied, so handlers cannot share mutable state through a message.
        """
        if self.loss_rate > 0 and self.loss_rng.random() < self.loss_rate:
            self.stats.dropped += 1
            return
        delivered = Message(
            trans_id=message.trans_id,
            mtype=message.mtype,
            path=message.path,
            index=message.index,
            capacity=message.capacity,
            commit=message.commit,
            payload=dict(message.payload),
        )
        recipient = self.node(delivered.current)

        def deliver() -> None:
            self.stats.record(delivered)
            recipient.handle(delivered, self)

        self.queue.schedule(self.latency + self.processing_delay, deliver)

    def inject(self, message: Message) -> None:
        """Entry point for senders: handle locally with zero latency."""
        recipient = self.node(message.current)

        def deliver() -> None:
            self.stats.record(message)
            recipient.handle(message, self)

        self.queue.schedule(self.processing_delay, deliver)

    def run_round(self, max_events: int = 1_000_000) -> float:
        """Drain in-flight messages; returns the simulated completion time."""
        self.queue.run_until_idle(max_events=max_events)
        return self.queue.now

    # ------------------------------------------------------------ inspection

    def total_escrow(self) -> float:
        """Funds currently held in escrow anywhere (0 between payments)."""
        return sum(
            hold.amount
            for node in self.nodes.values()
            for hold in node.holds.values()
        )
