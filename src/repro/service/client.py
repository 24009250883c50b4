"""The aclient API: run protocol sessions against a :class:`SyncServer`.

:func:`areconcile` is the network twin of :func:`repro.reconcile`: connect,
send the hello (protocol name, desired role, wire options, public size
statistics), build the local party from the registry once the ack arrives,
and drive it over an :class:`~repro.service.transport.AsyncSocketTransport`.
The default ``role="bob"`` recovers the server's dataset; ``role="alice"``
pushes the client's data to the server instead.

Sessions reuse connections.  When the ack says ``keep_alive`` and the
session ends cleanly (party done, the server's FIN read), the connection
waits in a pool of the running event loop, keyed by ``(host, port,
protocol)``, for the loop's next :func:`areconcile`; any error closes it
instead.  A pooled connection the server closed while it sat idle fails
before its ack, and the session then runs once on a fresh connection;
nothing is re-run after an ack.  The pool closes its connections when the
loop shuts down its async generators, which :func:`asyncio.run` does on
exit.  :func:`amutate` and :func:`afetch_stats` stay one-shot, so a
mutation is never replayed.

Blocking convenience wrappers (:func:`reconcile_with_server`,
:func:`fetch_stats_blocking`) cover scripts and the CLI.
"""

from __future__ import annotations

import asyncio
import json
import weakref
from typing import Any, AsyncGenerator

from repro.comm import ReconciliationResult
from repro.errors import ReconciliationError, ServiceError
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
    parse_mutate_ack,
    parse_session_ack,
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


Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]
PoolKey = tuple[str, int, str]


class _ConnectionPool:
    """One event loop's idle connections, most recently used last."""

    def __init__(self) -> None:
        self.idle: dict[PoolKey, list[Connection]] = {}
        #: Keeps the loop's finaliser for this pool alive (loops hold
        #: their async generators weakly).
        self.closer: AsyncGenerator[None, None] | None = None

    def take(self, key: PoolKey) -> Connection | None:
        """An idle connection to ``key`` the server has not visibly closed."""
        connections = self.idle.get(key, [])
        while connections:
            reader, writer = connections.pop()
            if not reader.at_eof() and not writer.is_closing():
                return reader, writer
            writer.close()
        return None

    def put(self, key: PoolKey, connection: Connection) -> None:
        self.idle.setdefault(key, []).append(connection)

    async def aclose(self) -> None:
        connections = [c for batch in self.idle.values() for c in batch]
        self.idle.clear()
        for _reader, writer in connections:
            writer.close()
        for _reader, writer in connections:
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass


#: Keyed by the loop object itself, never ``id(loop)``: a dead loop's id can
#: come back for a new loop, which must not inherit the old sockets.
_POOLS: weakref.WeakKeyDictionary[
    asyncio.AbstractEventLoop, _ConnectionPool
] = weakref.WeakKeyDictionary()


async def _pool() -> _ConnectionPool:
    """The running loop's pool, created on first use."""
    loop = asyncio.get_running_loop()
    pool = _POOLS.get(loop)
    if pool is None:
        pool = _POOLS[loop] = _ConnectionPool()
        closer = pool.closer = _close_at_shutdown(loop, pool)
        await closer.__anext__()  # the first step registers it with the loop
    return pool


async def _close_at_shutdown(
    loop: asyncio.AbstractEventLoop, pool: _ConnectionPool
) -> AsyncGenerator[None, None]:
    """Parks after its first step; the loop's ``shutdown_asyncgens`` (run
    by :func:`asyncio.run` on exit) finalises it, closing the pool."""
    try:
        yield
    finally:
        _POOLS.pop(loop, None)
        await pool.aclose()


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
    pool = await _pool()
    key = (host, port, protocol)
    session = (pool, key, spec, hello, data, latency)
    connection = pool.take(key)
    if connection is not None:
        try:
            return await _run_session(connection, *session, reused=True)
        except _StaleConnection:
            pass  # closed by the server while idle: once more, on a fresh one
    return await _run_session(await _connect(host, port), *session, reused=False)


class _StaleConnection(Exception):
    """A reused connection failed before the ack: no session started on it."""


async def _run_session(
    connection: Connection,
    pool: _ConnectionPool,
    key: PoolKey,
    spec: type[registry.Protocol],
    hello: Hello,
    data: Any,
    latency: float,
    *,
    reused: bool,
) -> ReconciliationResult:
    """One session on ``connection``, which goes back to ``pool`` after a
    clean session the server keeps alive and is closed otherwise."""
    role = hello.role
    transport = AsyncSocketTransport(*connection, role, latency=latency)
    pooled = False
    try:
        try:
            await transport.send_frame(
                FRAME_CONTROL, HELLO_LABEL, payload=hello.to_json()
            )
            frame = await transport.receive_frame()
        except ReconciliationError:
            if reused:
                raise _StaleConnection() from None
            raise
        if frame.kind != FRAME_CONTROL or frame.label != ACK_LABEL:
            raise ServiceError(
                f"expected a hello-ack, got frame kind {frame.kind} "
                f"label {frame.label!r}"
            )
        acked_options, server_stats, keep_alive = parse_session_ack(frame.payload)
        placeholder = placeholder_input(spec.input_kind, server_stats)
        if role == "alice":
            build_alice, build_bob = data, placeholder
        else:
            build_alice, build_bob = placeholder, data
        alice_party, bob_party = spec.build(build_alice, build_bob, acked_options)
        party = alice_party if role == "alice" else bob_party
        outcome, transcript = await run_party_async(party, transport)
        sent, received = transport.bytes_sent, transport.bytes_received
        if keep_alive:
            await transport.receive_fin()
            pool.put(key, connection)
            pooled = True
    finally:
        if not pooled:
            await transport.aclose()
    return ReconciliationResult(
        outcome.success,
        outcome.recovered,
        transcript,
        attempts=outcome.attempts,
        details={
            **outcome.details,
            "wire_bytes_sent": sent,
            "wire_bytes_received": received,
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
