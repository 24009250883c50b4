"""Party state machines: the building blocks of a protocol session.

A *party* is one side of a two-party protocol, written as a Python generator
that yields :class:`Send` and :class:`Receive` commands and finally returns a
:class:`PartyOutcome`.  The generator form makes the protocol's state machine
explicit -- every ``yield`` is a point where the party either hands a message
to the transport or blocks until one arrives -- while keeping the protocol
logic sequential and readable:

.. code-block:: python

    def alice(ctx):
        table = build_table(ctx)
        yield Send("set IBLT", table.size_bits, payload=table, codec=codec)
        return PartyOutcome(True)

    def bob(ctx):
        table = yield Receive(codec)
        ...
        return PartyOutcome(True, recovered=recovered)

Parties compose: a protocol that runs another protocol as a subroutine simply
``yield from``-s the sub-protocol's party generators (the four graph schemes
and the application protocols are built this way).

``Send.codec`` / ``Receive.codec`` name the :class:`~repro.protocols.wire`
codec able to turn the payload into bytes and back.  Every transport puts
real bytes on the wire: the sender's codec encodes, the receiver's decodes,
so a party only ever sees what the bytes say.  A command without a codec
raises :class:`~repro.protocols.wire.WireError` when it is built.

When a party blocks on :class:`Receive` after its peer has already finished,
the session delivers the :data:`END_OF_SESSION` sentinel instead of a
payload.  Parties that wait for an optional reply (e.g. the repeated-doubling
initiators waiting for a retry request) treat it as "the peer is satisfied".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.protocols.wire import WireError


class _EndOfSession:
    """Sentinel delivered to a Receive when the peer has already finished."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "END_OF_SESSION"


#: Delivered to a blocked :class:`Receive` once the peer's generator returned.
END_OF_SESSION = _EndOfSession()


@dataclass(frozen=True)
class Send:
    """Yield this to transmit one message to the peer.

    Attributes
    ----------
    label:
        Human-readable payload description (recorded in the transcript).
    size_bits:
        The size charged in the transcript -- the protocol's analytical
        accounting, validated against the real encoding by
        :class:`~repro.protocols.transports.SerializingTransport`.
    payload:
        The sender's payload object.
    codec:
        Wire codec able to serialize the payload (required).
    """

    label: str
    size_bits: int
    payload: Any = None
    codec: Any = None

    def __post_init__(self) -> None:
        _require_codec(self.codec, f"message {self.label!r}")


@dataclass(frozen=True)
class Receive:
    """Yield this to block until the peer's next message arrives.

    The yield expression evaluates to the received payload, decoded from
    the wire bytes through this (the receiver's) ``codec``, or
    :data:`END_OF_SESSION`.
    """

    codec: Any = None

    def __post_init__(self) -> None:
        _require_codec(self.codec, "a receive")


def _require_codec(codec: Any, what: str) -> None:
    """The one place a missing wire codec is refused."""
    if codec is None:
        raise WireError(f"{what} has no wire codec; no transport can carry it")


@dataclass
class PartyOutcome:
    """What one party's generator returns.

    The session combines both parties' outcomes into a single
    :class:`~repro.comm.result.ReconciliationResult`: overall success requires
    both parties to succeed, ``recovered`` is taken from the responder (the
    recovering side), and ``details`` dictionaries are merged.
    """

    success: bool = True
    recovered: Any = None
    details: dict[str, Any] = field(default_factory=dict)
    attempts: int = 1
    #: True when the party stopped because the peer finished without sending
    #: the message it was waiting for (END_OF_SESSION).  Composite parties use
    #: this to let the *peer's* failure details surface instead of their own.
    aborted: bool = False


#: The type of a party generator: yields Send/Receive commands, receives the
#: decoded payload (or END_OF_SESSION) back at each Receive, and returns a
#: PartyOutcome.  The send type is ``Any`` because only Receive yields get a
#: value; Send yields are resumed with ``None``.
PartyGenerator = Generator["Send | Receive", Any, PartyOutcome]

#: A pair of party generators ready to run against each other.
PartyPair = tuple[PartyGenerator, PartyGenerator]


#: Outcome a party returns when its peer ended the session mid-protocol.
def aborted_outcome() -> PartyOutcome:
    return PartyOutcome(False, aborted=True)
