"""Source-routing message format (Table 1 of the paper).

Every message carries the complete path (source routing), a transaction
id identifying the (partial) payment, collected channel capacities (for
probes), and the committed amount (for payments).  The wire encoding is
JSON — the prototype in the paper uses TCP with a similar self-describing
format; what matters for the reproduction is that the field set matches
Table 1:

    TransID  | A unique ID of a (partial) payment
    Type     | Message type
    Path     | Path of this message
    Capacity | Probed channel capacity
    Commit   | Committed amount of funds for this payment
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.network.channel import NodeId


class MessageType(enum.Enum):
    """Protocol message types (§5.1)."""

    PROBE = "PROBE"
    PROBE_ACK = "PROBE_ACK"
    COMMIT = "COMMIT"
    COMMIT_ACK = "COMMIT_ACK"
    COMMIT_NACK = "COMMIT_NACK"
    CONFIRM = "CONFIRM"
    CONFIRM_ACK = "CONFIRM_ACK"
    REVERSE = "REVERSE"
    REVERSE_ACK = "REVERSE_ACK"


#: Message types that terminate a round at the sender.
SENDER_TERMINAL_TYPES = frozenset(
    {
        MessageType.PROBE_ACK,
        MessageType.COMMIT_ACK,
        MessageType.COMMIT_NACK,
        MessageType.CONFIRM_ACK,
        MessageType.REVERSE_ACK,
    }
)


@dataclass(frozen=True)
class Message:
    """One source-routed protocol message (Table 1).

    ``index`` is the cursor of the node currently holding the message
    within ``path``; forwarding increments it.  ``capacity`` accumulates
    per-hop ``(forward, reverse)`` balances during probing.
    """

    trans_id: str
    mtype: MessageType
    path: tuple[NodeId, ...]
    index: int = 0
    capacity: tuple[tuple[float, float], ...] = ()
    commit: float = 0.0
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise ProtocolError(f"empty path in {self.mtype}")
        if not 0 <= self.index < len(self.path):
            raise ProtocolError(
                f"index {self.index} outside path of length {len(self.path)}"
            )

    @property
    def current(self) -> NodeId:
        return self.path[self.index]

    @property
    def at_end(self) -> bool:
        return self.index == len(self.path) - 1

    @property
    def next_hop(self) -> NodeId:
        if self.at_end:
            raise ProtocolError("no next hop at the end of the path")
        return self.path[self.index + 1]

    def forwarded(
        self, capacity: tuple[tuple[float, float], ...] | None = None
    ) -> "Message":
        """The same message advanced one hop (optionally with ``capacity``)."""
        return Message(
            trans_id=self.trans_id,
            mtype=self.mtype,
            path=self.path,
            index=self.index + 1,
            capacity=self.capacity if capacity is None else capacity,
            commit=self.commit,
            payload=self.payload,
        )

    def reply(self, mtype: MessageType) -> "Message":
        """A response traveling the reverse of the remaining path."""
        return Message(
            trans_id=self.trans_id,
            mtype=mtype,
            path=tuple(reversed(self.path[: self.index + 1])),
            index=0,
            capacity=self.capacity,
            commit=self.commit,
            payload=self.payload,
        )

    # ------------------------------------------------------------- encoding

    def encode(self) -> bytes:
        """Serialize to the JSON wire format."""
        return json.dumps(
            {
                "trans_id": self.trans_id,
                "type": self.mtype.value,
                "path": list(self.path),
                "index": self.index,
                "capacity": [list(pair) for pair in self.capacity],
                "commit": self.commit,
                "payload": self.payload,
            },
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def decode(cls, raw: bytes) -> "Message":
        """Parse a message from the JSON wire format."""
        try:
            data = json.loads(raw.decode("utf-8"))
            return cls(
                trans_id=data["trans_id"],
                mtype=MessageType(data["type"]),
                path=tuple(data["path"]),
                index=int(data["index"]),
                capacity=tuple(
                    (float(f), float(r)) for f, r in data["capacity"]
                ),
                commit=float(data["commit"]),
                payload=dict(data.get("payload", {})),
            )
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed message: {exc}") from exc


def sub_payment_id(txid: int, attempt: int) -> str:
    """Unique TransID for the ``attempt``-th partial payment of ``txid``."""
    return f"tx{txid}.{attempt}"
