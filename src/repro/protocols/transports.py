"""Transport seam: how a party's messages reach its peer.

Every transport puts real bytes on the wire: the sender's codec encodes each
payload, the measured byte length is cross-checked against the ``size_bits``
the transcript charged (plus the codec's documented framing), and the
receiver decodes with its own codec.  Two implementations:

* :class:`SerializingTransport` -- both parties in one process; the default
  of every :class:`~repro.protocols.session.Session` and
  :func:`repro.reconcile` call.  The receiver gets a genuinely re-decoded
  object, so the paper's communication accounting is verified, not asserted.
* :class:`SocketTransport` -- one endpoint of a real byte stream (e.g. a TCP
  connection); two OS processes each drive one party with
  :func:`run_party`.  A frame is a small uncharged header (sender, label,
  claimed ``size_bits``, payload length) followed by the codec-encoded
  payload bytes that :class:`SerializingTransport` measures.

The asyncio sibling, :class:`repro.service.AsyncSocketTransport`, speaks the
exact same frames through the packing/parsing helpers defined here, so the
blocking and event-loop transports interoperate on one wire.
"""

from __future__ import annotations

import socket as _socket
import struct
from dataclasses import dataclass
from typing import Any

from repro.comm import Transcript
from repro.errors import ParameterError, ReconciliationError
from repro.protocols.party import (
    END_OF_SESSION,
    PartyGenerator,
    PartyOutcome,
    Receive,
    Send,
)
from repro.protocols.wire import WireAccountingError


@dataclass(frozen=True)
class MessageMeasurement:
    """Measured vs. charged size of one serialized message."""

    sender: str
    label: str
    charged_bits: int
    framing_bits: int
    measured_bytes: int

    @property
    def budget_bytes(self) -> int:
        """Largest byte length the charged size (plus framing) allows."""
        return (self.charged_bits + self.framing_bits + 7) // 8

    @property
    def within_budget(self) -> bool:
        return self.measured_bytes <= self.budget_bytes


class Transport:
    """Interface between a :class:`~repro.protocols.session.Session` and the wire.

    ``on_send`` converts an outgoing :class:`Send` into the in-flight
    representation queued for the peer; ``on_receive`` converts the in-flight
    representation back into the payload the receiving party sees.
    """

    name = "abstract"

    def on_send(self, sender: str, send: Send) -> Any:
        raise NotImplementedError

    def on_receive(self, inflight: Any, receive: Receive, send: Send) -> Any:
        raise NotImplementedError


def _encode_and_measure(
    sender: str,
    send: Send,
    measurements: list[MessageMeasurement],
) -> bytes:
    """Encode one message, record its measurement, enforce the byte budget.

    The single accounting rule shared by every byte-level transport: the
    encoding must fit ``ceil((size_bits + framing_bits) / 8)`` bytes, or
    :class:`~repro.protocols.wire.WireAccountingError` is raised after the
    measurement is recorded.
    """
    data = send.codec.encode(send.payload)
    measurement = MessageMeasurement(
        sender,
        send.label,
        send.size_bits,
        send.codec.framing_bits(send.payload),
        len(data),
    )
    measurements.append(measurement)
    if not measurement.within_budget:
        raise WireAccountingError(
            f"message {send.label!r} serialized to {len(data)} bytes but its "
            f"transcript entry charged {send.size_bits} bits "
            f"(+{measurement.framing_bits} framing = "
            f"{measurement.budget_bytes} byte budget)"
        )
    return data


class SerializingTransport(Transport):
    """Round-trip every payload through bytes and verify the accounting.

    A message whose encoding exceeds its charged ``size_bits`` (rounded up
    to bytes, plus the codec's documented framing) raises
    :class:`~repro.protocols.wire.WireAccountingError` at send time; every
    message's :class:`MessageMeasurement` is kept in :attr:`measurements`.
    """

    name = "serializing"

    def __init__(self) -> None:
        self.measurements: list[MessageMeasurement] = []

    def on_send(self, sender: str, send: Send) -> bytes:
        return _encode_and_measure(sender, send, self.measurements)

    def on_receive(self, inflight: bytes, receive: Receive, send: Send) -> Any:
        return receive.codec.decode(inflight)


# ---------------------------------------------------------------------------
# Real byte streams: the shared frame layer and the single-party driver
# ---------------------------------------------------------------------------
#
# One frame format is shared by every byte-stream transport in the library:
# the blocking :class:`SocketTransport` below and the asyncio
# :class:`repro.service.AsyncSocketTransport` (plus the sync service's hello
# negotiation, which rides on the HELLO frame kind).  Helpers here do all the
# packing/parsing so the two transports cannot drift, and every malformed or
# truncated frame surfaces as a clean :class:`ReconciliationError` instead of
# a leaked ``struct.error`` / ``UnicodeDecodeError`` / raw ``OSError``.

FRAME_MESSAGE = 0
FRAME_FIN = 1
#: Control frames used by the sync service's hello/ack/stats negotiation
#: (see :mod:`repro.service.hello`); never produced by a protocol session.
FRAME_CONTROL = 2

#: struct layout of the fixed part of a frame header:
#: type (B), sender length (B), label length (H), size_bits (Q), payload length (I)
FRAME_HEADER = struct.Struct("!BBHQI")

#: Sanity cap on a single frame's payload (64 MiB).  No message in the
#: library comes anywhere close; a corrupt or hostile header must not make
#: the receiver wait for gigabytes that will never arrive.
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024


@dataclass(frozen=True)
class Frame:
    """One parsed wire frame."""

    kind: int
    sender: str
    label: str
    size_bits: int
    payload: bytes


def pack_frame(
    kind: int, sender: str = "", label: str = "", size_bits: int = 0,
    payload: bytes = b"",
) -> bytes:
    """Serialize one frame (header + sender + label + payload).

    The sender-side twin of the receive-path checks: fields that do not fit
    the header layout, or a payload over :data:`MAX_FRAME_PAYLOAD`, raise a
    clean :class:`ReconciliationError` here instead of being sent and
    refused by the peer (or leaking a ``struct.error`` mid-send).
    """
    sender_bytes = sender.encode()
    label_bytes = label.encode()
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise ReconciliationError(
            f"message {label!r} serialized to {len(payload)} bytes, over the "
            f"{MAX_FRAME_PAYLOAD}-byte frame cap; split the data across several datasets "
            "instead of sending one monolithic sketch"
        )
    try:
        header = FRAME_HEADER.pack(
            kind, len(sender_bytes), len(label_bytes), size_bits, len(payload)
        )
    except struct.error as exc:
        raise ReconciliationError(
            f"frame fields do not fit the header layout "
            f"(sender {len(sender_bytes)} B, label {len(label_bytes)} B, "
            f"size_bits {size_bits}): {exc}"
        ) from exc
    return header + sender_bytes + label_bytes + payload


def parse_frame_header(header: bytes) -> tuple[int, int, int, int, int]:
    """Parse the fixed header; returns ``(kind, sender_len, label_len, size_bits,
    payload_len)`` and validates the payload sanity cap."""
    try:
        kind, sender_len, label_len, size_bits, payload_len = FRAME_HEADER.unpack(
            header
        )
    except struct.error as exc:
        raise ReconciliationError(f"malformed frame header: {exc}") from exc
    if payload_len > MAX_FRAME_PAYLOAD:
        raise ReconciliationError(
            f"frame claims a {payload_len}-byte payload "
            f"(cap {MAX_FRAME_PAYLOAD}); refusing to read it"
        )
    return kind, sender_len, label_len, size_bits, payload_len


def assemble_frame(
    kind: int, sender_len: int, label_len: int, size_bits: int, body: bytes
) -> Frame:
    """Build a :class:`Frame` from a parsed header and the frame body
    (``sender + label + payload`` concatenated)."""
    try:
        sender = body[:sender_len].decode()
        label = body[sender_len : sender_len + label_len].decode()
    except UnicodeDecodeError as exc:
        raise ReconciliationError(f"undecodable frame metadata: {exc}") from exc
    return Frame(kind, sender, label, size_bits, body[sender_len + label_len :])


def enable_nodelay(sock: _socket.socket) -> None:
    """Set ``TCP_NODELAY`` on a socket, ignoring sockets that lack it.

    Protocol frames are small and latency-bound; Nagle's algorithm only adds
    round-trip delay.  Non-TCP sockets (``socketpair``, AF_UNIX) raise
    ``OSError`` and are left alone.
    """
    try:
        sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
    except (OSError, AttributeError):
        pass


def _recv_exact(sock: _socket.socket, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise ReconciliationError(f"socket receive failed: {exc}") from exc
        if not chunk:
            raise ReconciliationError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: _socket.socket) -> Frame:
    """Read one complete frame from a blocking socket (clean errors on EOF)."""
    kind, sender_len, label_len, size_bits, payload_len = parse_frame_header(
        _recv_exact(sock, FRAME_HEADER.size)
    )
    body = _recv_exact(sock, sender_len + label_len + payload_len)
    return assemble_frame(kind, sender_len, label_len, size_bits, body)


class SocketTransport:
    """One endpoint of a two-process protocol session over a stream socket.

    Each process constructs a :class:`SocketTransport` around a connected
    socket and drives its own party with :func:`run_party`.  Frames carry the
    sender role, the transcript label and the claimed ``size_bits`` so both
    endpoints reconstruct identical transcripts.
    """

    name = "socket"

    def __init__(self, sock: _socket.socket, role: str) -> None:
        if role not in ("alice", "bob"):
            raise ParameterError("role must be 'alice' or 'bob'")
        self.sock = sock
        self.role = role
        self.measurements: list[MessageMeasurement] = []
        enable_nodelay(sock)

    # -- frame I/O ------------------------------------------------------------------

    def _sendall(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise ReconciliationError(f"socket send failed: {exc}") from exc

    def send_message(self, send: Send) -> None:
        data = _encode_and_measure(self.role, send, self.measurements)
        self._sendall(
            pack_frame(FRAME_MESSAGE, self.role, send.label, send.size_bits, data)
        )

    def send_fin(self) -> None:
        self._sendall(pack_frame(FRAME_FIN))

    def receive_message(self) -> tuple[str, str, int, bytes] | None:
        """The next frame as ``(sender, label, size_bits, data)``; ``None`` on FIN."""
        frame = read_frame(self.sock)
        if frame.kind == FRAME_FIN:
            return None
        if frame.kind != FRAME_MESSAGE:
            raise ReconciliationError(
                f"unexpected frame kind {frame.kind} mid-session"
            )
        return frame.sender, frame.label, frame.size_bits, frame.payload


def run_party(
    party: PartyGenerator,
    transport: SocketTransport,
    transcript: Transcript | None = None,
) -> tuple[PartyOutcome, Transcript]:
    """Drive one party generator against a real byte stream.

    Returns the party's outcome and the transcript this endpoint observed
    (identical, message for message, to the peer's).
    """
    transcript = transcript if transcript is not None else Transcript()
    try:
        outcome = _drive_party(party, transport, transcript)
    finally:
        # Always tell the peer we are done -- including when the party or a
        # codec raised -- so its blocking recv fails fast instead of hanging.
        try:
            transport.send_fin()
        except (OSError, ReconciliationError):
            pass  # peer already gone; the primary error (if any) propagates
    return outcome, transcript


def outcome_from_stop(stop_value: Any, who: str = "party") -> PartyOutcome:
    """Normalize a party generator's return value into a :class:`PartyOutcome`.

    The single normalization point shared by every party driver: the
    in-process session loop, the blocking socket driver above and the asyncio
    driver in :mod:`repro.service.transport`.  ``who`` names the offender in
    the error (the session loop passes the role).
    """
    if stop_value is None:
        return PartyOutcome(True)
    if isinstance(stop_value, PartyOutcome):
        return stop_value
    raise ReconciliationError(
        f"{who} returned {stop_value!r}; expected a PartyOutcome"
    )


def _drive_party(
    party: PartyGenerator, transport: SocketTransport, transcript: Transcript
) -> PartyOutcome:
    peer_finished = False
    value = None
    try:
        command = party.send(None)
        while True:
            if isinstance(command, Send):
                transport.send_message(command)
                transcript.send(
                    transport.role, command.label, command.size_bits, command.payload
                )
                value = None
            elif isinstance(command, Receive):
                if peer_finished:
                    value = END_OF_SESSION
                else:
                    frame = transport.receive_message()
                    if frame is None:
                        peer_finished = True
                        value = END_OF_SESSION
                    else:
                        sender, label, size_bits, data = frame
                        payload = command.codec.decode(data)
                        transcript.send(sender, label, size_bits, payload)
                        value = payload
            else:
                raise ReconciliationError(
                    f"party yielded {command!r}; expected Send or Receive"
                )
            command = party.send(value)
    except StopIteration as stop:
        return outcome_from_stop(stop.value)
