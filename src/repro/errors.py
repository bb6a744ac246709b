"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ChannelError(ReproError):
    """A payment-channel operation was invalid (e.g. overdraft)."""


class InsufficientBalanceError(ChannelError):
    """A transfer exceeded the available directional balance."""

    def __init__(self, src: object, dst: object, requested: float, available: float):
        self.src = src
        self.dst = dst
        self.requested = requested
        self.available = available
        super().__init__(
            f"channel {src}->{dst}: requested {requested!r} "
            f"exceeds available balance {available!r}"
        )


class NoChannelError(ChannelError):
    """No payment channel exists between the two parties."""

    def __init__(self, src: object, dst: object):
        self.src = src
        self.dst = dst
        super().__init__(f"no channel between {src!r} and {dst!r}")


class NoPathError(ReproError):
    """No path exists between sender and receiver."""


class RoutingError(ReproError):
    """A routing algorithm failed to produce a usable route."""


class PaymentFailedError(ReproError):
    """A payment could not be delivered (insufficient capacity on all paths)."""


class OptimizationError(ReproError):
    """The fee-minimization program could not be solved."""


class ProtocolError(ReproError):
    """A protocol message was malformed or arrived in an invalid state."""


class EventBudgetError(ProtocolError, RuntimeError):
    """The discrete-event queue exhausted its event budget (livelock?).

    Subclasses ``RuntimeError`` too, so callers that guarded against the
    pre-typed bare ``RuntimeError`` keep working; new code should catch
    :class:`ReproError` (the CLI does) or this class directly.
    """


class TopologyError(ReproError):
    """A topology generator received invalid parameters."""
