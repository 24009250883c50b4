"""Asyncio endpoint of a protocol session: frames over a stream pair.

:class:`AsyncSocketTransport` is the event-loop sibling of the blocking
:class:`~repro.protocols.transports.SocketTransport`.  Both speak the exact
frame format defined in :mod:`repro.protocols.transports` (the packing and
parsing helpers are shared, so the two cannot drift): a small uncharged
header carrying sender role, transcript label, claimed ``size_bits`` and
payload length, followed by the codec-encoded payload bytes.  A blocking
client therefore interoperates with the asyncio server and vice versa.

:func:`run_party_async` mirrors :func:`~repro.protocols.transports.run_party`
for coroutines: it drives one party generator, reconstructing the transcript
from the frames both endpoints observe, and always sends a FIN on the way
out so the peer's pending read fails fast instead of hanging.

The transport additionally counts raw wire bytes in each direction
(``bytes_sent`` / ``bytes_received``, headers included) -- the service
metrics report these against the bits the transcript charged -- and accepts
a ``latency`` knob that simulates one-way wire delay before each frame
(used by the throughput benchmark to model WAN clients; zero by default).
"""

from __future__ import annotations

import asyncio

from repro.comm import Transcript
from repro.errors import ParameterError, ReconciliationError
from repro.protocols.party import (
    END_OF_SESSION,
    PartyGenerator,
    PartyOutcome,
    Receive,
    Send,
)
from repro.protocols.transports import (
    FRAME_FIN,
    FRAME_HEADER,
    FRAME_MESSAGE,
    Frame,
    MessageMeasurement,
    _encode_and_measure,
    assemble_frame,
    enable_nodelay,
    outcome_from_stop,
    pack_frame,
    parse_frame_header,
)


def frame_from_bytes(data: bytes) -> Frame:
    """Parse one *complete* frame from raw bytes (header plus exact body).

    The fleet supervisor reads a connection's first frame with raw socket
    recvs before handing the descriptor to a worker; the worker rebuilds
    the frame from those bytes with this helper, so the handed-off stream
    starts exactly where the supervisor stopped reading.
    """
    if len(data) < FRAME_HEADER.size:
        raise ReconciliationError(
            f"truncated frame: {len(data)} bytes is shorter than the header"
        )
    kind, sender_len, label_len, size_bits, payload_len = parse_frame_header(
        data[: FRAME_HEADER.size]
    )
    body = data[FRAME_HEADER.size :]
    expected = sender_len + label_len + payload_len
    if len(body) != expected:
        raise ReconciliationError(
            f"frame body is {len(body)} bytes; the header promised {expected}"
        )
    return assemble_frame(kind, sender_len, label_len, size_bits, body)


class AsyncSocketTransport:
    """One endpoint of a protocol session over an asyncio stream pair.

    Parameters
    ----------
    reader, writer:
        The connected :class:`asyncio.StreamReader` / ``StreamWriter``.
    role:
        ``"alice"`` or ``"bob"`` -- stamped on every outgoing frame so both
        endpoints rebuild identical transcripts.
    latency:
        Simulated one-way wire delay in seconds, awaited before each frame
        is written.  Only benchmarks and tests set this.
    """

    name = "async-socket"

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        role: str,
        latency: float = 0.0,
    ) -> None:
        if role not in ("alice", "bob"):
            raise ParameterError("role must be 'alice' or 'bob'")
        self.reader = reader
        self.writer = writer
        self.role = role
        self.latency = latency
        self.measurements: list[MessageMeasurement] = []
        self.bytes_sent = 0
        self.bytes_received = 0
        sock = writer.get_extra_info("socket")
        if sock is not None:
            enable_nodelay(sock)

    # -- frame I/O ------------------------------------------------------------------

    async def send_frame(
        self, kind: int, label: str = "", size_bits: int = 0, payload: bytes = b""
    ) -> None:
        """Write one raw frame (control frames use this directly)."""
        if self.latency:
            await asyncio.sleep(self.latency)
        data = pack_frame(kind, self.role, label, size_bits, payload)
        try:
            self.writer.write(data)
            await self.writer.drain()
        except (OSError, ConnectionError) as exc:
            raise ReconciliationError(f"socket send failed: {exc}") from exc
        self.bytes_sent += len(data)

    async def receive_frame(self) -> Frame:
        """Read one complete frame (clean errors on EOF or truncation)."""
        try:
            header = await self.reader.readexactly(FRAME_HEADER.size)
            kind, sender_len, label_len, size_bits, payload_len = parse_frame_header(
                header
            )
            body = await self.reader.readexactly(sender_len + label_len + payload_len)
        except asyncio.IncompleteReadError as exc:
            raise ReconciliationError(
                "peer closed the connection mid-frame"
            ) from exc
        except (OSError, ConnectionError) as exc:
            raise ReconciliationError(f"socket receive failed: {exc}") from exc
        self.bytes_received += len(header) + len(body)
        return assemble_frame(kind, sender_len, label_len, size_bits, body)

    async def send_message(self, send: Send) -> None:
        data = _encode_and_measure(self.role, send, self.measurements)
        await self.send_frame(FRAME_MESSAGE, send.label, send.size_bits, data)

    async def send_fin(self) -> None:
        await self.send_frame(FRAME_FIN)

    async def receive_message(self) -> tuple[str, str, int, bytes] | None:
        """The next frame as ``(sender, label, size_bits, data)``; ``None`` on FIN."""
        frame = await self.receive_frame()
        if frame.kind == FRAME_FIN:
            return None
        if frame.kind != FRAME_MESSAGE:
            raise ReconciliationError(
                f"unexpected frame kind {frame.kind} mid-session"
            )
        return frame.sender, frame.label, frame.size_bits, frame.payload

    async def aclose(self) -> None:
        """Close the underlying stream, swallowing teardown races."""
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def run_party_async(
    party: PartyGenerator,
    transport: AsyncSocketTransport,
    transcript: Transcript | None = None,
) -> tuple[PartyOutcome, Transcript]:
    """Drive one party generator over an asyncio stream.

    The coroutine twin of :func:`repro.protocols.transports.run_party`:
    returns the party's outcome and the transcript this endpoint observed
    (identical, message for message, to the peer's).
    """
    transcript = transcript if transcript is not None else Transcript()
    try:
        outcome = await _drive_party_async(party, transport, transcript)
    finally:
        # Always tell the peer we are done -- including when the party or a
        # codec raised -- so its pending read fails fast instead of hanging.
        try:
            await transport.send_fin()
        except ReconciliationError:
            pass  # peer already gone; the primary error (if any) propagates
    return outcome, transcript


async def _drive_party_async(
    party: PartyGenerator, transport: AsyncSocketTransport, transcript: Transcript
) -> PartyOutcome:
    peer_finished = False
    value = None
    try:
        command = party.send(None)
        while True:
            if isinstance(command, Send):
                await transport.send_message(command)
                transcript.send(
                    transport.role, command.label, command.size_bits, command.payload
                )
                value = None
            elif isinstance(command, Receive):
                if peer_finished:
                    value = END_OF_SESSION
                else:
                    frame = await transport.receive_message()
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
