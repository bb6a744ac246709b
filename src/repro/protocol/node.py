"""Protocol node: the per-node message state machine (§5.1).

Each node implements the three essential functions of the prototype —
source routing, probing, and atomic payment processing — by reacting to
the Table-1 messages:

* **PROBE** — append the balances of the channel to the next hop and
  forward; the receiver reflects a PROBE_ACK along the reversed path.
* **COMMIT** (2PC phase 1) — escrow the committed amount on the channel to
  the next hop and forward; on insufficient balance, bounce a COMMIT_NACK
  straight back to the sender.
* **CONFIRM / CONFIRM_ACK** (2PC phase 2, success) — relay to the
  receiver; on the ACK's way back each node settles its escrow, crediting
  the funds to the reverse direction so bidirectional balances stay
  consistent.
* **REVERSE / REVERSE_ACK** (2PC phase 2, failure) — each node releases
  its escrow, returning the committed funds to the forward channel.

Balance mutations use the :class:`~repro.network.channel.Channel`
hold/settle/release primitives, so the channel-conservation invariant is
enforced by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.errors import ChannelError, ProtocolError
from repro.network.channel import NodeId
from repro.network.graph import ChannelGraph
from repro.protocol.messages import Message, MessageType


@dataclass
class _Hold:
    src: NodeId
    dst: NodeId
    amount: float


@dataclass
class ProtocolNode:
    """One participant: message handlers plus per-payment escrow records."""

    node_id: NodeId
    graph: ChannelGraph
    #: Escrows this node placed, keyed by TransID.
    holds: dict[str, _Hold] = field(default_factory=dict)
    #: Terminal replies delivered to this node acting as a sender.
    inbox: list[Message] = field(default_factory=list)
    #: Messages handled (the node-level processing-load metric).
    handled: int = 0

    #: Message type -> handler method name, built once per class and
    #: looked up by name, so a subclass's override dispatches.
    _HANDLERS: ClassVar[dict[MessageType, str]] = {
        MessageType.PROBE: "_on_probe",
        MessageType.PROBE_ACK: "_relay_to_sender",
        MessageType.COMMIT: "_on_commit",
        MessageType.COMMIT_ACK: "_relay_to_sender",
        MessageType.COMMIT_NACK: "_relay_to_sender",
        MessageType.CONFIRM: "_on_confirm",
        MessageType.CONFIRM_ACK: "_on_confirm_ack",
        MessageType.REVERSE: "_on_reverse",
        MessageType.REVERSE_ACK: "_relay_to_sender",
    }

    def handle(self, message: Message, network) -> None:
        """Process one message; emit follow-ups through ``network.send``."""
        if message.current != self.node_id:
            raise ProtocolError(
                f"message for {message.current!r} delivered to {self.node_id!r}"
            )
        self.handled += 1
        getattr(self, self._HANDLERS[message.mtype])(message, network)

    # ------------------------------------------------------------- probing

    def _on_probe(self, message: Message, network) -> None:
        if message.at_end:
            network.send(message.reply(MessageType.PROBE_ACK))
            return
        nxt = message.next_hop
        forward = self.graph.balance(self.node_id, nxt)
        reverse = self.graph.balance(nxt, self.node_id)
        network.send(
            message.forwarded(capacity=message.capacity + ((forward, reverse),))
        )

    # ----------------------------------------------------------- 2PC phase 1

    def _on_commit(self, message: Message, network) -> None:
        if message.at_end:
            network.send(message.reply(MessageType.COMMIT_ACK))
            return
        if message.trans_id in self.holds:
            # Duplicate COMMIT (sender retransmission after loss): the
            # escrow is already in place, just forward.  Idempotency per
            # TransID is what makes round retransmission safe.
            network.send(message.forwarded())
            return
        nxt = message.next_hop
        try:
            channel = self.graph.channel(self.node_id, nxt)
            held = channel.hold(self.node_id, nxt, message.commit)
        except ChannelError:
            held = False
        if not held:
            network.send(message.reply(MessageType.COMMIT_NACK))
            return
        self.holds[message.trans_id] = _Hold(self.node_id, nxt, message.commit)
        network.send(message.forwarded())

    # ----------------------------------------------------------- 2PC phase 2

    def _on_confirm(self, message: Message, network) -> None:
        if message.at_end:
            network.send(message.reply(MessageType.CONFIRM_ACK))
            return
        network.send(message.forwarded())

    def _on_confirm_ack(self, message: Message, network) -> None:
        hold = self.holds.pop(message.trans_id, None)
        if hold is not None:
            self.graph.channel(hold.src, hold.dst).settle_hold(
                hold.src, hold.dst, hold.amount
            )
        self._relay_to_sender(message, network)

    def _on_reverse(self, message: Message, network) -> None:
        hold = self.holds.pop(message.trans_id, None)
        if hold is not None:
            self.graph.channel(hold.src, hold.dst).release_hold(
                hold.src, hold.dst, hold.amount
            )
        if message.at_end:
            network.send(message.reply(MessageType.REVERSE_ACK))
            return
        network.send(message.forwarded())

    # -------------------------------------------------------------- relays

    def _relay_to_sender(self, message: Message, network) -> None:
        if message.at_end:
            # This node is the original sender: deliver the reply.
            self.inbox.append(message)
            return
        network.send(message.forwarded())
