"""The hello handshake against hostile peers, and the package surface.

Every malformed hello must be answered with a refusing ``hello-ack`` -- never
a dropped connection or a server-side "unexpected error" -- and must leave
the session counters consistent: ``sessions_started == sessions_served +
sessions_failed + rejected_hellos``.
"""

import asyncio
import json

import pytest

import repro.service
from repro.errors import ParameterError, ServiceError
from repro.protocols import pack_frame
from repro.protocols.transports import FRAME_CONTROL
from repro.service import SyncFleet, SyncServer, afetch_stats, areconcile, fleet_supported
from repro.service.hello import (
    ACK_LABEL,
    HELLO_LABEL,
    SERVICE_VERSION,
    Hello,
    PeerStats,
    parse_ack,
)
from repro.service.transport import AsyncSocketTransport

UNIVERSE = 1 << 20
DATASETS = {"ibf": set(range(0, 2000, 7))}
VALID = {
    "version": SERVICE_VERSION,
    "protocol": "ibf",
    "role": "bob",
    "options": {"universe_size": UNIVERSE, "difference_bound": 8},
    "stats": {"num_children": 0, "total_elements": 0, "max_child_size": 0},
}

HOSTILE_HELLOS = {
    "not-an-object": [],
    "options-int": {**VALID, "options": 5},
    "options-list": {**VALID, "options": ["seed"]},
    "stats-string": {**VALID, "stats": "x"},
    "stats-negative": {
        **VALID,
        "stats": {"num_children": -1, "total_elements": 0, "max_child_size": 0},
    },
    "stats-bool": {
        **VALID,
        "stats": {"num_children": True, "total_elements": 0, "max_child_size": 0},
    },
    "stats-float": {
        **VALID,
        "stats": {"num_children": 1.5, "total_elements": 0, "max_child_size": 0},
    },
    "stats-numeric-string": {
        **VALID,
        "stats": {"num_children": "3", "total_elements": 0, "max_child_size": 0},
    },
    "stats-missing-field": {**VALID, "stats": {"num_children": 0}},
    "stats-extra-field": {**VALID, "stats": {**VALID["stats"], "depth": 1}},
    "stats-list": {**VALID, "stats": [0, 0, 0]},
    "options-null": {**VALID, "options": None},
    "stale-shard-descriptor": {**VALID, "shard": {"bits": 2, "index": 0, "seed": 0}},
    "unknown-key": {**VALID, "bogus": 1},
}


async def send_hello(port, body):
    """Send one raw hello and return the parsed ack (raises on refusal)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    transport = AsyncSocketTransport(reader, writer, "bob")
    try:
        payload = json.dumps(body).encode()
        writer.write(pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0, payload))
        await writer.drain()
        frame = await transport.receive_frame()
    finally:
        await transport.aclose()
    assert frame.kind == FRAME_CONTROL and frame.label == ACK_LABEL
    return parse_ack(frame.payload)


def assert_sessions_balance(stats):
    assert stats["sessions_started"] == (
        stats["sessions_served"] + stats["sessions_failed"] + stats["rejected_hellos"]
    )


@pytest.mark.timeout(60)
@pytest.mark.parametrize("body", HOSTILE_HELLOS.values(), ids=HOSTILE_HELLOS.keys())
def test_malformed_hello_is_refused_in_the_ack(body):
    async def scenario():
        async with SyncServer(DATASETS) as server:
            with pytest.raises(ServiceError, match="refused"):
                await send_hello(server.port, body)
            # The server is still healthy and its counters add up.
            acked_options, _ = await send_hello(server.port, VALID)
            assert acked_options.difference_bound == 8
            return await afetch_stats("127.0.0.1", server.port)

    assert_sessions_balance(asyncio.run(scenario()))


@pytest.mark.timeout(120)
@pytest.mark.skipif(not fleet_supported(), reason="fleet needs POSIX descriptor passing")
def test_fleet_supervisor_refuses_a_malformed_hello():
    async def scenario():
        async with SyncFleet(DATASETS, workers=2, seed=2018) as fleet:
            with pytest.raises(ServiceError, match="refused"):
                await send_hello(fleet.port, HOSTILE_HELLOS["not-an-object"])
            result = await areconcile(
                "127.0.0.1", fleet.port, "ibf", set(DATASETS["ibf"]) | {1},
                universe_size=UNIVERSE, difference_bound=8,
            )
            assert result.success and result.recovered == DATASETS["ibf"]
            return await afetch_stats("127.0.0.1", fleet.port)

    assert_sessions_balance(asyncio.run(scenario()))


@pytest.mark.parametrize(
    "hello",
    [
        Hello("ibf", "alice", {"difference_bound": 8}, PeerStats(3, 40, 17)),
        Hello(None, want_stats=True),
    ],
    ids=["session", "stats-request"],
)
def test_hello_round_trips_through_json(hello):
    assert Hello.from_json(hello.to_json()) == hello


def test_removed_scale_out_names_are_gone():
    removed = (
        "ShardPlan",
        "ShardRequest",
        "areconcile_sharded",
        "merge_sessions",
        "reconcile_sharded",
        "shard_input",
        "shard_of",
        "split_shard",
    )
    for name in removed:
        assert not hasattr(repro.service, name), name
        assert name not in repro.service.__all__, name
    # ``shard=`` falls through to the reconcile options, which refuse it
    # before any connection is made.
    with pytest.raises(ParameterError, match="shard"):
        asyncio.run(areconcile("127.0.0.1", 1, "ibf", {1}, shard=None))
