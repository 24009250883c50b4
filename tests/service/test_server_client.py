"""The asyncio sync server and aclient API, including the acceptance pin:
one server, >= 64 concurrent client sessions across >= 3 registered
protocols, every recovery byte-identical to an in-process session."""

import asyncio
import json
import random
import socket
import threading

import pytest

import repro
from repro.core.setsofsets.types import SetOfSets
from repro.errors import ReconciliationError, ServiceError
from repro.protocols import SocketTransport, pack_frame, read_frame, run_party
from repro.protocols.options import ReconcileOptions
from repro.protocols.registry import get
from repro.protocols.transports import FRAME_CONTROL
from repro.service import (
    SyncServer,
    afetch_stats,
    areconcile,
    reconcile_with_server,
)
from repro.service.hello import ACK_LABEL, HELLO_LABEL, Hello, PeerStats, parse_ack
from repro.service.hello import placeholder_input

UNIVERSE = 1 << 20
SEED = 2018


def make_server_data(rng):
    server_set = set(rng.sample(range(UNIVERSE), 400))
    children = [frozenset(rng.sample(range(UNIVERSE), 6)) for _ in range(50)]
    return server_set, SetOfSets(children)


def perturb_set(base, rng, deletions=3, insertions=3):
    mutated = set(base)
    for element in rng.sample(sorted(base), deletions):
        mutated.discard(element)
    while insertions:
        element = rng.randrange(UNIVERSE)
        if element not in base:
            mutated.add(element)
            insertions -= 1
    return mutated


def perturb_sos(base, rng, touched=2):
    children = [set(child) for child in sorted(base.children, key=sorted)]
    for index in rng.sample(range(len(children)), touched):
        children[index].add(rng.randrange(UNIVERSE))
    return SetOfSets(children)


def run_async(coroutine):
    return asyncio.run(coroutine)


@pytest.mark.timeout(180)
def test_64_concurrent_sessions_across_three_protocols_match_in_memory():
    """The tentpole acceptance pin."""
    rng = random.Random(SEED)
    server_set, server_sos = make_server_data(rng)
    datasets = {"ibf": server_set, "cpi": server_set, "multiround": server_sos}
    protocols = ["ibf", "cpi", "multiround"]

    async def scenario():
        async with SyncServer(datasets) as server:
            port = server.port

            async def one_client(client_id):
                protocol = protocols[client_id % len(protocols)]
                crng = random.Random(SEED + client_id)
                if protocol == "multiround":
                    mine = perturb_sos(server_sos, crng)
                else:
                    mine = perturb_set(server_set, crng)
                options = ReconcileOptions(
                    seed=SEED + client_id,
                    universe_size=UNIVERSE,
                    difference_bound=12,
                )
                result = await areconcile(
                    "127.0.0.1", port, protocol, mine, options=options
                )
                reference = repro.reconcile(
                    datasets[protocol], mine, protocol=protocol, options=options
                )
                assert result.success, (client_id, protocol)
                assert result.recovered == datasets[protocol]
                assert result.recovered == reference.recovered
                assert result.total_bits == reference.total_bits
                assert result.num_rounds == reference.num_rounds
                return protocol

            served = await asyncio.gather(*(one_client(i) for i in range(64)))
            stats = await afetch_stats("127.0.0.1", port)
            return served, stats

    served, stats = run_async(scenario())
    assert len(served) == 64
    assert len(set(served)) == 3
    assert stats["sessions_served"] == 64
    assert stats["sessions_failed"] == 0
    assert set(stats["by_protocol"]) == {"ibf", "cpi", "multiround"}
    # Raw wire bytes include uncharged frame headers, so they exceed the
    # charged payload bytes -- and the report quantifies the overhead.
    assert stats["wire_overhead_bytes"] > 0


@pytest.mark.timeout(60)
def test_client_pushing_as_alice_succeeds():
    rng = random.Random(SEED + 1)
    server_set, _ = make_server_data(rng)
    mine = perturb_set(server_set, rng)

    async def scenario():
        async with SyncServer({"ibf": server_set}) as server:
            result = await areconcile(
                "127.0.0.1", server.port, "ibf", mine,
                role="alice", seed=3, universe_size=UNIVERSE, difference_bound=12,
            )
            return result, await afetch_stats("127.0.0.1", server.port)

    result, stats = run_async(scenario())
    # Alice's side has nothing to recover; the server (bob) did the work.
    assert result.success and result.recovered is None
    assert stats["sessions_served"] == 1


@pytest.mark.timeout(60)
def test_set_of_sets_stats_are_negotiated_not_guessed():
    """Client and server child-size maxima differ; the handshake exchanges
    the public statistics so both build the same shared context."""
    rng = random.Random(SEED + 2)
    server_sos = SetOfSets(
        [frozenset(rng.sample(range(UNIVERSE), 4)) for _ in range(30)]
    )
    client_children = [set(child) for child in sorted(server_sos.children, key=sorted)]
    client_children[0] |= set(rng.sample(range(UNIVERSE), 7))  # much bigger child
    client_sos = SetOfSets(client_children)
    options = ReconcileOptions(
        seed=SEED, universe_size=UNIVERSE, difference_bound=8
    )

    async def scenario():
        async with SyncServer({"multiround": server_sos}) as server:
            return await areconcile(
                "127.0.0.1", server.port, "multiround", client_sos, options=options
            )

    result = run_async(scenario())
    reference = repro.reconcile(
        server_sos, client_sos, protocol="multiround", options=options
    )
    assert result.success
    assert result.recovered == server_sos == reference.recovered
    assert result.total_bits == reference.total_bits


@pytest.mark.timeout(60)
def test_negotiation_failures_raise_service_error():
    from repro.errors import ParameterError

    async def raw_hello(port, payload):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0, payload))
            await writer.drain()
            from repro.service.transport import AsyncSocketTransport

            return await AsyncSocketTransport(reader, writer, "bob").receive_frame()
        finally:
            writer.close()
            await writer.wait_closed()

    async def scenario():
        async with SyncServer({"ibf": {1, 2, 3}}) as server:
            port = server.port
            # Unknown protocol: caught client-side by the registry lookup ...
            with pytest.raises(ParameterError, match="unknown protocol"):
                await areconcile("127.0.0.1", port, "nonsense", {1},
                                 universe_size=UNIVERSE)
            # ... and refused server-side for a hand-rolled hello.
            ack = await raw_hello(
                port,
                Hello("nonsense", "bob", {}).to_json(),
            )
            with pytest.raises(ServiceError, match="unknown protocol"):
                parse_ack(ack.payload)
            with pytest.raises(ServiceError, match="no dataset"):
                await areconcile("127.0.0.1", port, "cpi", {1},
                                 universe_size=UNIVERSE, difference_bound=2)
            # Garbage hello payloads are refused, not crashed on.
            ack = await raw_hello(port, b"\xff not json")
            with pytest.raises(ServiceError, match="refused"):
                parse_ack(ack.payload)
            # So are options ReconcileOptions refuses (a negative bound).
            ack = await raw_hello(
                port,
                Hello(
                    "ibf", "bob", {"universe_size": UNIVERSE, "difference_bound": -1}
                ).to_json(),
            )
            with pytest.raises(ServiceError, match="invalid option"):
                parse_ack(ack.payload)
            return await afetch_stats("127.0.0.1", port)

    stats = run_async(scenario())
    assert stats["rejected_hellos"] >= 3
    assert stats["sessions_served"] == 0


@pytest.mark.timeout(60)
def test_misconfigured_dataset_is_refused_at_hello():
    """A dataset of the wrong type refuses cleanly instead of escaping as an
    AttributeError after a successful ack."""

    async def scenario():
        async with SyncServer(
            {"multiround": {1, 2, 3}, "ibf": SetOfSets([[1]])}
        ) as server:
            with pytest.raises(ServiceError, match="cannot feed"):
                await areconcile(
                    "127.0.0.1", server.port, "multiround", SetOfSets([[1]]),
                    universe_size=UNIVERSE, difference_bound=2,
                )
            with pytest.raises(ServiceError, match="cannot feed"):
                await areconcile(
                    "127.0.0.1", server.port, "ibf", {1},
                    universe_size=UNIVERSE, difference_bound=2,
                )
            return await afetch_stats("127.0.0.1", server.port)

    stats = run_async(scenario())
    assert stats["rejected_hellos"] == 2


@pytest.mark.timeout(60)
def test_graph_protocols_are_refused():
    async def scenario():
        async with SyncServer({"exhaustive": object()}) as server:
            with pytest.raises(ServiceError, match="input kind"):
                await areconcile(
                    "127.0.0.1", server.port, "exhaustive", {1},
                    difference_bound=1,
                )

    run_async(scenario())


def test_placeholder_rejects_unserved_kinds():
    with pytest.raises(ServiceError, match="not served"):
        placeholder_input("graph", PeerStats())


@pytest.mark.timeout(60)
def test_server_survives_a_mid_session_client_crash():
    """A client vanishing mid-session is a recorded failure, not a dead server."""
    rng = random.Random(SEED + 3)
    server_set, _ = make_server_data(rng)

    async def scenario():
        async with SyncServer({"ibf": server_set}) as server:
            port = server.port
            # Handshake, then sever the connection before any session frame.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            hello = Hello(
                "ibf", "bob",
                {"universe_size": UNIVERSE, "difference_bound": None, "seed": 1},
                PeerStats(),
            )
            writer.write(pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0,
                                    hello.to_json()))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.2)  # let the handler finish recording

            # The server still serves a well-behaved client afterwards.
            mine = perturb_set(server_set, rng)
            result = await areconcile(
                "127.0.0.1", port, "ibf", mine,
                seed=5, universe_size=UNIVERSE, difference_bound=12,
            )
            stats = await afetch_stats("127.0.0.1", port)
            return result, stats

    result, stats = run_async(scenario())
    assert result.success and result.recovered == server_set
    assert stats["sessions_failed"] == 1
    assert stats["sessions_served"] == 1


@pytest.mark.timeout(60)
def test_blocking_socket_client_interoperates_with_async_server():
    """The frame format really is shared: a blocking SocketTransport client
    (hello sent by hand) completes a session against the asyncio server."""
    rng = random.Random(SEED + 4)
    server_set, _ = make_server_data(rng)
    mine = perturb_set(server_set, rng)
    options = ReconcileOptions(seed=7, universe_size=UNIVERSE, difference_bound=12)
    started = threading.Event()
    box = {}

    def serve():
        async def body():
            async with SyncServer({"ibf": server_set}) as server:
                box["port"] = server.port
                started.set()
                await asyncio.sleep(5)  # long enough for the one client

        asyncio.run(body())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10)

    sock = socket.create_connection(("127.0.0.1", box["port"]), timeout=10)
    hello = Hello("ibf", "bob", {"seed": 7, "universe_size": UNIVERSE,
                                 "difference_bound": 12},
                  PeerStats())
    sock.sendall(pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0, hello.to_json()))
    ack = read_frame(sock)
    assert ack.kind == FRAME_CONTROL and ack.label == ACK_LABEL
    acked_options, server_stats = parse_ack(ack.payload)

    spec = get("ibf")
    placeholder = placeholder_input(spec.input_kind, server_stats)
    _, bob_party = spec.build(placeholder, mine, acked_options)
    outcome, transcript = run_party(bob_party, SocketTransport(sock, "bob"))
    sock.close()
    assert outcome.success and outcome.recovered == server_set
    reference = repro.reconcile(server_set, mine, protocol="ibf", options=options)
    assert transcript.total_bits == reference.total_bits


@pytest.mark.timeout(60)
def test_blocking_wrapper_and_stats_json_shape():
    rng = random.Random(SEED + 5)
    server_set, _ = make_server_data(rng)
    mine = perturb_set(server_set, rng)
    started = threading.Event()
    box = {}

    def serve():
        async def body():
            async with SyncServer({"ibf": server_set}) as server:
                box["port"] = server.port
                started.set()
                await asyncio.sleep(5)

        asyncio.run(body())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert started.wait(10)

    result = reconcile_with_server(
        "127.0.0.1", box["port"], "ibf", mine,
        seed=9, universe_size=UNIVERSE, difference_bound=12,
    )
    assert result.success and result.recovered == server_set
    assert result.details["wire_bytes_sent"] > 0
    assert result.details["wire_bytes_received"] > 0

    from repro.service import fetch_stats_blocking

    stats = fetch_stats_blocking("127.0.0.1", box["port"])
    json.dumps(stats)  # the whole report must stay JSON-safe
    assert stats["sessions_served"] == 1
