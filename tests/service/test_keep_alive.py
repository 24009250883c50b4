"""Keep-alive: served sessions back to back on one connection.

A FIN ends a session and EOF ends the connection.  ``areconcile`` pools a
connection after a clean session whose ack said ``keep_alive``, and the
server skips the FIN between sessions, counts every session's wire bytes
on their own, and closes idle connections after ``IDLE_TIMEOUT_S`` or at
once on drain.  The disconnect tests cut a pooled connection at each
session boundary: while idle (idle timeout, server restart, a dead socket
the client has not noticed), after the ack, and mid-session.

CI runs this file with ``-W error::ResourceWarning``: a pooled socket must
never leak an unclosed transport.
"""

import asyncio
import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.setsofsets.types import SetOfSets
from repro.errors import ReconciliationError, ServiceError
from repro.protocols import pack_frame
from repro.protocols.options import ReconcileOptions
from repro.protocols.transports import (
    FRAME_CONTROL,
    FRAME_FIN,
    FRAME_HEADER,
    parse_frame_header,
)
import repro.service.server as server_module
from repro.service import SyncServer, areconcile
from repro.service.__main__ import DEFAULT_SEED, DEFAULT_UNIVERSE, demo_set, mutate_set
from repro.service.client import _POOLS
from repro.service.hello import (
    ACK_LABEL,
    HELLO_LABEL,
    Hello,
    PeerStats,
    ack_payload,
    parse_session_ack,
)
from repro.service.transport import AsyncSocketTransport

UNIVERSE = 1 << 20
SEED = 2018
SESSIONS = 6
REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def make_set(rng, size=300):
    return set(rng.sample(range(UNIVERSE), size))


def perturb(data, rng):
    if isinstance(data, SetOfSets):
        children = [set(child) for child in sorted(data.children, key=sorted)]
        for index in rng.sample(range(len(children)), 2):
            children[index].add(rng.randrange(UNIVERSE))
        return SetOfSets(children)
    mutated = set(data)
    for element in rng.sample(sorted(data), 2):
        mutated.discard(element)
    mutated.add(rng.randrange(UNIVERSE))
    return mutated


def options(index, bound=12):
    return ReconcileOptions(
        seed=SEED + index, universe_size=UNIVERSE, difference_bound=bound
    )


def count_connections(server):
    """Wrap the accept callback (before ``start``) and return the counter."""
    counter = {"connections": 0}
    handle = server._handle_connection

    async def counting(reader, writer):
        counter["connections"] += 1
        await handle(reader, writer)

    server._handle_connection = counting
    return counter


def record_sessions(server):
    """Collect every ``SessionRecord`` the server writes, in order."""
    records = []
    record = server.metrics.record_session

    def recording(session_record):
        records.append(session_record)
        record(session_record)

    server.metrics.record_session = recording
    return records


def message_shape(transcript):
    return [
        (m.sender, m.round_index, m.label, m.size_bits) for m in transcript.messages
    ]


async def sync(port, mine, index, protocol="ibf", **kwargs):
    return await areconcile(
        "127.0.0.1", port, protocol, mine, options=options(index), **kwargs
    )


# ---------------------------------------------------------------------------
# One connection, many sessions
# ---------------------------------------------------------------------------


@pytest.mark.timeout(60)
def test_sequential_sessions_share_one_connection():
    """N sequential syncs on one loop open exactly one server connection,
    and each transcript equals the in-process session's, message for
    message."""
    rng = random.Random(SEED)
    server_set = make_set(rng)
    clients = [perturb(server_set, rng) for _ in range(SESSIONS)]

    async def scenario():
        server = SyncServer({"ibf": server_set})
        counter = count_connections(server)
        async with server:
            results = [
                await sync(server.port, mine, index)
                for index, mine in enumerate(clients)
            ]
            return results, counter["connections"], server.metrics.sessions_served

    results, connections, served = asyncio.run(scenario())
    assert connections == 1
    assert served == SESSIONS
    for index, (mine, result) in enumerate(zip(clients, results)):
        assert result.success and result.recovered == server_set
        reference = repro.reconcile(
            server_set, mine, protocol="ibf", options=options(index)
        )
        assert message_shape(result.transcript) == message_shape(
            reference.transcript
        )


@pytest.mark.timeout(60)
def test_the_pool_closes_with_its_loop():
    """``asyncio.run`` ends by finalising the loop's async generators; the
    pool's closer is one of them, so no pooled socket outlives its loop."""
    rng = random.Random(SEED + 9)
    server_set = make_set(rng)

    async def scenario():
        async with SyncServer({"ibf": server_set}) as server:
            result = await sync(server.port, perturb(server_set, rng), 0)
            loop = asyncio.get_running_loop()
            [(_, writer)] = _POOLS[loop].idle[("127.0.0.1", server.port, "ibf")]
            assert not writer.is_closing()
        return result, loop, writer

    result, loop, writer = asyncio.run(scenario())
    assert result.success
    assert loop not in _POOLS
    assert writer.is_closing()


@contextlib.contextmanager
def served_in_thread(datasets):
    """A ``SyncServer`` on its own loop in a thread, so every client
    ``asyncio.run`` starts with an empty pool."""
    server = SyncServer(datasets)
    counter = count_connections(server)
    records = record_sessions(server)
    started = threading.Event()
    box = {}

    def serve():
        async def body():
            box["stop"] = asyncio.Event()
            box["loop"] = asyncio.get_running_loop()
            async with server:
                started.set()
                await box["stop"].wait()

        asyncio.run(body())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10)
    try:
        yield server, counter, records
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(30)


@pytest.mark.timeout(120)
def test_session_records_match_one_shot_sessions():
    """Per-session accounting: over N sessions on one connection, every
    ``SessionRecord`` (wire bytes each way, overhead, bits, rounds,
    messages) equals the record of the same session run one-shot, for
    both client roles and a multi-round protocol."""
    rng = random.Random(SEED + 1)
    server_set = make_set(rng)
    server_sos = SetOfSets(
        [frozenset(rng.sample(range(UNIVERSE), 6)) for _ in range(40)]
    )
    datasets = {"ibf": server_set, "cpi": server_set, "multiround": server_sos}
    plan = [
        ("ibf", "bob"), ("ibf", "alice"), ("cpi", "bob"),
        ("multiround", "bob"), ("ibf", "bob"), ("multiround", "bob"),
    ]
    inputs = [perturb(datasets[protocol], rng) for protocol, _ in plan]

    async def one(port, index):
        protocol, role = plan[index]
        return await sync(port, inputs[index], index, protocol=protocol, role=role)

    async def pooled(port):
        return [await one(port, index) for index in range(len(plan))]

    def overhead(record):
        return (
            record.wire_bytes_sent
            + record.wire_bytes_received
            - (record.bits_charged + 7) // 8
        )

    def fields(record):
        return (
            record.protocol, record.role, record.success, record.rounds,
            record.messages, record.bits_charged, record.wire_bytes_sent,
            record.wire_bytes_received, overhead(record),
        )

    with served_in_thread(datasets) as (server, counter, records):
        pooled_results = asyncio.run(pooled(server.port))
        assert counter["connections"] == len(datasets)  # one per protocol
        one_shot_results = [
            asyncio.run(one(server.port, index)) for index in range(len(plan))
        ]
        assert counter["connections"] == len(datasets) + len(plan)

    assert len(records) == 2 * len(plan)
    for index in range(len(plan)):
        kept, alone = records[index], records[len(plan) + index]
        assert kept.success and kept.error is None
        assert fields(kept) == fields(alone), plan[index]
        assert overhead(kept) > 0
        client_kept, client_alone = pooled_results[index], one_shot_results[index]
        assert client_kept.details == client_alone.details, plan[index]
        assert message_shape(client_kept.transcript) == message_shape(
            client_alone.transcript
        )


# ---------------------------------------------------------------------------
# Disconnects at session boundaries
# ---------------------------------------------------------------------------


class CuttingProxy:
    """A TCP relay in front of a server that cuts its next relayed
    connection once: ``"before-ack"`` drops it when the client's next
    request arrives (a server that died while the connection sat idle),
    ``"after-ack"`` relays exactly one more server frame and then drops
    it (a server that died right after acking)."""

    def __init__(self, target_port):
        self.target_port = target_port
        self.accepted = 0
        self.cut = None
        self._writers = []

    async def start(self):
        self._server = await asyncio.start_server(self._relay, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self):
        self._server.close()
        await self._server.wait_closed()
        for writer in self._writers:
            writer.close()

    async def _relay(self, client_reader, client_writer):
        self.accepted += 1
        server_reader, server_writer = await asyncio.open_connection(
            "127.0.0.1", self.target_port
        )
        self._writers += [client_writer, server_writer]

        def drop():
            client_writer.close()
            server_writer.close()

        async def upstream():
            while data := await client_reader.read(65536):
                if self.cut == "before-ack":
                    self.cut = None
                    return drop()
                server_writer.write(data)
                await server_writer.drain()
            server_writer.close()

        async def downstream():
            while True:
                try:
                    header = await server_reader.readexactly(FRAME_HEADER.size)
                except asyncio.IncompleteReadError:
                    return client_writer.close()
                _, sender_len, label_len, _, payload_len = parse_frame_header(header)
                body = await server_reader.readexactly(
                    sender_len + label_len + payload_len
                )
                client_writer.write(header + body)
                await client_writer.drain()
                if self.cut == "after-ack":
                    # Armed between sessions: the frame just relayed is the
                    # next session's ack.
                    self.cut = None
                    return drop()

        await asyncio.gather(upstream(), downstream(), return_exceptions=True)


@pytest.mark.timeout(60)
def test_idle_timeout_closes_the_connection_and_the_next_sync_reconnects(
    monkeypatch,
):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.05)
    rng = random.Random(SEED + 2)
    server_set = make_set(rng)

    async def scenario():
        server = SyncServer({"ibf": server_set})
        counter = count_connections(server)
        async with server:
            first = await sync(server.port, perturb(server_set, rng), 0)
            await asyncio.sleep(0.3)  # the server closes the idle connection
            second = await sync(server.port, perturb(server_set, rng), 1)
            return first, second, counter["connections"], server.metrics

    first, second, connections, metrics = asyncio.run(scenario())
    assert first.success and second.success
    assert second.recovered == server_set
    assert connections == 2
    assert metrics.sessions_served == 2 and metrics.sessions_failed == 0


@pytest.mark.timeout(60)
def test_server_restart_between_sessions():
    """The server drains (closing the idle pooled connection) and a new one
    listens on the same port: the next sync runs on a fresh connection."""
    rng = random.Random(SEED + 3)
    server_set = make_set(rng)

    async def scenario():
        first_server = SyncServer({"ibf": server_set})
        async with first_server:
            port = first_server.port
            first = await sync(port, perturb(server_set, rng), 0)
        second_server = SyncServer({"ibf": server_set}, port=port)
        counter = count_connections(second_server)
        async with second_server:
            second = await sync(port, perturb(server_set, rng), 1)
        return first, second, counter["connections"]

    first, second, connections = asyncio.run(scenario())
    assert first.success and second.success
    assert second.recovered == server_set
    assert connections == 1


@pytest.mark.timeout(60)
def test_a_pooled_connection_dead_before_its_ack_is_retried_once_fresh():
    """A pooled connection that looks alive but dies when the next hello
    arrives: no session started on it, so the sync runs once more on a
    fresh connection and succeeds."""
    rng = random.Random(SEED + 4)
    server_set = make_set(rng)

    async def scenario():
        async with SyncServer({"ibf": server_set}) as server:
            proxy = CuttingProxy(server.port)
            port = await proxy.start()
            first = await sync(port, perturb(server_set, rng), 0)
            proxy.cut = "before-ack"
            second = await sync(port, perturb(server_set, rng), 1)
            third = await sync(port, perturb(server_set, rng), 2)
            await proxy.aclose()
            return first, second, third, proxy.accepted, server.metrics

    first, second, third, accepted, metrics = asyncio.run(scenario())
    assert first.success and second.success and third.success
    assert second.recovered == server_set
    assert accepted == 2  # the fresh connection, then pooled again
    assert metrics.sessions_started == 3 and metrics.sessions_failed == 0


@pytest.mark.timeout(60)
def test_a_connection_dying_after_the_ack_fails_the_session_without_a_rerun():
    rng = random.Random(SEED + 5)
    server_set = make_set(rng)

    async def scenario():
        async with SyncServer({"ibf": server_set}) as server:
            proxy = CuttingProxy(server.port)
            port = await proxy.start()
            first = await sync(port, perturb(server_set, rng), 0)
            proxy.cut = "after-ack"
            with pytest.raises(ReconciliationError):
                await sync(port, perturb(server_set, rng), 1)
            await proxy.aclose()
            await asyncio.sleep(0.1)  # let the server record the failure
            return first, proxy.accepted, server.metrics

    first, accepted, metrics = asyncio.run(scenario())
    assert first.success
    assert accepted == 1  # nothing was re-run on a fresh connection
    assert metrics.sessions_started == 2


async def _read_to_eof(reader):
    """Every frame kind the server sends before closing the connection."""
    kinds = []
    while True:
        try:
            header = await reader.readexactly(FRAME_HEADER.size)
        except asyncio.IncompleteReadError as exc:
            assert exc.partial == b""
            return kinds
        kind, sender_len, label_len, _, payload_len = parse_frame_header(header)
        await reader.readexactly(sender_len + label_len + payload_len)
        kinds.append(kind)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("intruder", ["second-hello", "garbage"])
def test_an_intruding_frame_mid_session_fails_the_session_and_closes(intruder):
    """The client pushes as alice, so the server's bob waits for a message;
    a second hello or a garbage header arrives instead.  The server fails
    the session, sends its FIN and closes the connection."""
    rng = random.Random(SEED + 6)
    server_set = make_set(rng)
    hello = Hello(
        "ibf", "alice", {"universe_size": UNIVERSE, "difference_bound": 12, "seed": 1}
    )
    hello_frame = pack_frame(FRAME_CONTROL, "alice", HELLO_LABEL, 0, hello.to_json())
    intruding = hello_frame if intruder == "second-hello" else b"\xff" * FRAME_HEADER.size

    async def scenario():
        async with SyncServer({"ibf": server_set}) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            transport = AsyncSocketTransport(reader, writer, "alice")
            writer.write(hello_frame)
            ack = await transport.receive_frame()
            assert ack.label == ACK_LABEL
            _, _, keep_alive = parse_session_ack(ack.payload)
            assert keep_alive
            writer.write(intruding)
            await writer.drain()
            kinds = await asyncio.wait_for(_read_to_eof(reader), 10)
            await transport.aclose()
            await asyncio.sleep(0.05)
            return kinds, server.metrics

    kinds, metrics = asyncio.run(scenario())
    assert kinds == [FRAME_FIN]
    assert metrics.sessions_failed == 1 and metrics.sessions_served == 0


@pytest.mark.timeout(60)
def test_garbage_between_sessions_closes_the_connection():
    rng = random.Random(SEED + 7)
    server_set = make_set(rng)

    async def scenario():
        async with SyncServer({"ibf": server_set}) as server:
            result = await sync(server.port, perturb(server_set, rng), 0)
            # Reach into the pooled connection and write garbage on it.
            pool = _POOLS[asyncio.get_running_loop()]
            [(reader, writer)] = pool.idle[("127.0.0.1", server.port, "ibf")]
            writer.write(b"\xff" * FRAME_HEADER.size)
            kinds = await asyncio.wait_for(_read_to_eof(reader), 10)
            after = await sync(server.port, perturb(server_set, rng), 1)
            return result, kinds, after, server.metrics

    result, kinds, after, metrics = asyncio.run(scenario())
    assert result.success and after.success
    assert kinds == []  # nothing answered, the connection closed
    assert metrics.sessions_served == 2 and metrics.sessions_failed == 0


# ---------------------------------------------------------------------------
# The ack and the drain
# ---------------------------------------------------------------------------


def test_the_ack_carries_keep_alive_and_defaults_to_one_shot():
    opts = ReconcileOptions(seed=3, universe_size=UNIVERSE, difference_bound=4)
    stats = PeerStats()
    assert parse_session_ack(ack_payload(opts, stats, keep_alive=True))[2] is True
    assert parse_session_ack(ack_payload(opts, stats))[2] is False
    # An ack from a server that predates keep-alive has no such key.
    assert parse_session_ack(b'{"ok": true, "version": 1}')[2] is False


@pytest.mark.timeout(60)
def test_drain_closes_idle_connections_at_once():
    """Idle pooled connections hold no session: a drain with a long
    deadline closes them at once and counts them neither way."""
    rng = random.Random(SEED + 8)
    server_set = make_set(rng)

    async def scenario():
        server = SyncServer({"ibf": server_set}, drain_deadline=30.0)
        await server.start()
        port = server.port
        results = await asyncio.gather(
            *(sync(port, perturb(server_set, rng), index) for index in range(3))
        )
        started = time.perf_counter()
        summary = await server.adrain()
        seconds = time.perf_counter() - started
        with pytest.raises(ServiceError):  # the listener is closed
            await sync(port, perturb(server_set, rng), 9)
        return results, summary, seconds

    results, summary, seconds = asyncio.run(scenario())
    assert all(result.success for result in results)
    assert summary == {"drained": 0, "aborted": 0}
    assert seconds < 2.0


@pytest.mark.timeout(120)
def test_sigterm_drains_a_server_holding_idle_connections():
    """The CLI server, SIGTERMed while a client holds pooled connections,
    exits in well under its 30 s drain deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    size = 256
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--port", "0", "--size", str(size), "--drain-deadline", "30",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    base = demo_set(DEFAULT_UNIVERSE, size, DEFAULT_SEED)

    async def scenario(port):
        opts = ReconcileOptions(
            seed=DEFAULT_SEED, universe_size=DEFAULT_UNIVERSE, difference_bound=16
        )
        results = await asyncio.gather(
            *(
                areconcile(
                    "127.0.0.1", port, "ibf",
                    mutate_set(base, DEFAULT_UNIVERSE, 4, DEFAULT_SEED + index),
                    options=opts,
                )
                for index in range(2)
            )
        )
        started = time.perf_counter()
        proc.send_signal(signal.SIGTERM)
        while proc.poll() is None:  # the pooled connections stay open meanwhile
            await asyncio.sleep(0.02)
        return results, time.perf_counter() - started

    try:
        line = proc.stdout.readline()
        match = re.search(r"on 127\.0\.0\.1:(\d+)", line)
        assert match, line
        results, seconds = asyncio.run(scenario(int(match.group(1))))
        stdout, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert all(result.success and result.recovered == base for result in results)
    assert proc.returncode == 0, stdout
    assert "drained: 0 finished, 0 aborted" in stdout
    assert seconds < 5.0
