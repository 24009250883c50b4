"""The aclient API: run protocol sessions against a :class:`SyncServer`.

:func:`areconcile` is the network twin of :func:`repro.reconcile`: connect,
send the hello (protocol name, desired role, wire options, public size
statistics), build the local party from the registry once the ack arrives,
and drive it over an :class:`~repro.service.transport.AsyncSocketTransport`.
The default ``role="bob"`` recovers the server's dataset; ``role="alice"``
pushes the client's data to the server instead.

Blocking convenience wrappers (:func:`reconcile_with_server`,
:func:`fetch_stats_blocking`) cover scripts and the CLI.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.comm import ReconciliationResult
from repro.errors import ServiceError
from repro.protocols import registry
from repro.protocols.options import ReconcileOptions
from repro.protocols.transports import FRAME_CONTROL
from repro.service.hello import (
    ACK_LABEL,
    HELLO_LABEL,
    MUTATE_ACK_LABEL,
    MUTATE_LABEL,
    STATS_LABEL,
    Hello,
    PeerStats,
    mutate_payload,
    options_to_wire,
    parse_ack,
    parse_mutate_ack,
    placeholder_input,
)
from repro.service.transport import AsyncSocketTransport, run_party_async


async def _connect(
    host: str, port: int
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a stream to the server, with connect failures in the library's
    error taxonomy instead of a raw ``OSError``."""
    try:
        return await asyncio.open_connection(host, port)
    except OSError as exc:
        raise ServiceError(f"cannot reach the sync server at {host}:{port}: {exc}") from exc


async def areconcile(
    host: str,
    port: int,
    protocol: str,
    data: Any,
    *,
    role: str = "bob",
    options: ReconcileOptions | None = None,
    latency: float = 0.0,
    **overrides: Any,
) -> ReconciliationResult:
    """Run one session against the server; returns this endpoint's result.

    With the default ``role="bob"``, ``result.recovered`` is the server's
    dataset.  Negotiation failures raise :class:`~repro.errors.ServiceError`;
    transport failures mid-session raise
    :class:`~repro.errors.ReconciliationError` like any other socket session.
    """
    if role not in ("alice", "bob"):
        raise ServiceError("role must be 'alice' or 'bob'")
    merged = (options if options is not None else ReconcileOptions()).merged(
        **overrides
    )
    spec = registry.get(protocol)
    hello = Hello(protocol, role, options_to_wire(merged), PeerStats.of(data))
    reader, writer = await _connect(host, port)
    transport = AsyncSocketTransport(reader, writer, role, latency=latency)
    try:
        await transport.send_frame(FRAME_CONTROL, HELLO_LABEL, payload=hello.to_json())
        frame = await transport.receive_frame()
        if frame.kind != FRAME_CONTROL or frame.label != ACK_LABEL:
            raise ServiceError(
                f"expected a hello-ack, got frame kind {frame.kind} "
                f"label {frame.label!r}"
            )
        acked_options, server_stats = parse_ack(frame.payload)
        placeholder = placeholder_input(spec.input_kind, server_stats)
        if role == "alice":
            build_alice, build_bob = data, placeholder
        else:
            build_alice, build_bob = placeholder, data
        alice_party, bob_party = spec.build(build_alice, build_bob, acked_options)
        party = alice_party if role == "alice" else bob_party
        outcome, transcript = await run_party_async(party, transport)
    finally:
        await transport.aclose()
    return ReconciliationResult(
        outcome.success,
        outcome.recovered,
        transcript,
        attempts=outcome.attempts,
        details={
            **outcome.details,
            "wire_bytes_sent": transport.bytes_sent,
            "wire_bytes_received": transport.bytes_received,
        },
    )


async def afetch_stats(host: str, port: int) -> dict[str, Any]:
    """Fetch the server's aggregate metrics report (the ``/stats`` call)."""
    reader, writer = await _connect(host, port)
    transport = AsyncSocketTransport(reader, writer, "bob")
    try:
        await transport.send_frame(
            FRAME_CONTROL, HELLO_LABEL, payload=Hello(None, want_stats=True).to_json()
        )
        frame = await transport.receive_frame()
        if frame.kind != FRAME_CONTROL or frame.label != STATS_LABEL:
            raise ServiceError(
                f"expected a stats frame, got kind {frame.kind} label {frame.label!r}"
            )
        return json.loads(frame.payload.decode())
    finally:
        await transport.aclose()


async def amutate(
    host: str,
    port: int,
    dataset: str,
    *,
    insert: Any = (),
    delete: Any = (),
) -> dict[str, int]:
    """Apply a delta to a server-side dataset and its live sketches.

    Requires the server to host a :class:`~repro.store.SketchStore`.
    Returns the *effective* delta (keys already present are not
    re-inserted, absent keys are not deleted) plus the dataset's new size.
    A refusal (no store, unknown dataset, immutable dataset, malformed
    keys) raises :class:`~repro.errors.ServiceError`.
    """
    reader, writer = await _connect(host, port)
    transport = AsyncSocketTransport(reader, writer, "bob")
    try:
        await transport.send_frame(
            FRAME_CONTROL,
            MUTATE_LABEL,
            payload=mutate_payload(dataset, insert, delete),
        )
        frame = await transport.receive_frame()
        if frame.kind != FRAME_CONTROL or frame.label != MUTATE_ACK_LABEL:
            raise ServiceError(
                f"expected a mutate-ack, got frame kind {frame.kind} "
                f"label {frame.label!r}"
            )
        return parse_mutate_ack(frame.payload)
    finally:
        await transport.aclose()


# ---------------------------------------------------------------------------
# Blocking conveniences (scripts, the CLI)
# ---------------------------------------------------------------------------


def reconcile_with_server(*args: Any, **kwargs: Any) -> ReconciliationResult:
    """Blocking wrapper around :func:`areconcile`."""
    return asyncio.run(areconcile(*args, **kwargs))


def fetch_stats_blocking(host: str, port: int) -> dict[str, Any]:
    """Blocking wrapper around :func:`afetch_stats`."""
    return asyncio.run(afetch_stats(host, port))


def mutate_server(*args: Any, **kwargs: Any) -> dict[str, int]:
    """Blocking wrapper around :func:`amutate`."""
    return asyncio.run(amutate(*args, **kwargs))
