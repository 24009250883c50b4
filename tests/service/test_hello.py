"""The hello handshake against hostile peers, and the package surface.

Every malformed hello, an option value of the wrong type or range included,
must be answered with a refusing ``hello-ack`` (and every malformed ``mutate``
with a refusing ``mutate-ack``) -- never a dropped connection or a
server-side "unexpected error" -- and must leave
the session counters consistent: ``sessions_started == sessions_served +
sessions_failed + rejected_hellos``.
"""

import asyncio
import dataclasses
import json

import pytest

import repro.service
from repro.errors import ParameterError, ServiceError
from repro.protocols import pack_frame
from repro.protocols.transports import FRAME_CONTROL
from repro.service import SyncFleet, SyncServer, afetch_stats, areconcile, fleet_supported
from repro.protocols.options import ReconcileOptions
from repro.service.hello import (
    _OPTION_CHECKS,
    ACK_LABEL,
    HELLO_LABEL,
    MUTATE_ACK_LABEL,
    MUTATE_LABEL,
    SERVICE_VERSION,
    Hello,
    PeerStats,
    options_from_wire,
    options_to_wire,
    parse_ack,
    parse_mutate_ack,
)
from repro.store import SketchStore
from repro.workloads import sets_of_sets_instance
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


def with_option(name, value):
    return {**VALID, "options": {**VALID["options"], name: value}}


#: Option values of the wrong type or past their range: each is refused in
#: the ack, before any party is built.
HOSTILE_HELLOS.update(
    {
        "bound-string": with_option("difference_bound", "x"),
        "bound-past-header": with_option("difference_bound", 10**30),
        "bound-float": with_option("difference_bound", 8.0),
        "universe-string": with_option("universe_size", "big"),
        "universe-float": with_option("universe_size", 1.5),
        "universe-zero": with_option("universe_size", 0),
        "seed-list": with_option("seed", [1]),
        "backend-int": with_option("backend", 3),
        # The one cell store answers to "numpy" and "auto" only.
        "backend-python": with_option("backend", "python"),
        "backend-unknown": with_option("backend", "gpu"),
        # ReconcileOptions refuses a field kernel no kernel answers to; the
        # one kernel answers to "numpy" and "auto" only.
        "field_kernel-unknown": with_option("field_kernel", "bogus"),
        "field_kernel-python": with_option("field_kernel", "python"),
    }
)

#: ``mutate`` bodies that are not JSON objects.
HOSTILE_MUTATES = {"list": [], "string": "ibf", "number": 5, "null": None}


async def send_control(port, label, body):
    """Send one raw control frame and return the reply frame."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    transport = AsyncSocketTransport(reader, writer, "bob")
    try:
        payload = json.dumps(body).encode()
        writer.write(pack_frame(FRAME_CONTROL, "bob", label, 0, payload))
        await writer.drain()
        return await transport.receive_frame()
    finally:
        await transport.aclose()


async def send_hello(port, body):
    """Send one raw hello and return the parsed ack (raises on refusal)."""
    frame = await send_control(port, HELLO_LABEL, body)
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


@pytest.mark.timeout(60)
def test_a_hello_naming_the_reference_kernel_is_refused_as_unknown():
    """``"python"`` names no kernel any more: the refusal is an unknown
    name's, word for word."""

    async def refusal(name):
        async with SyncServer(DATASETS) as server:
            with pytest.raises(ServiceError, match="refused") as refused:
                await send_hello(server.port, with_option("field_kernel", name))
        return str(refused.value)

    python, unknown = (asyncio.run(refusal(name)) for name in ("python", "bogus"))
    assert "unknown field kernel 'python'; accepted: ['auto', 'numpy']" in python
    assert python.replace("'python'", "'bogus'") == unknown


@pytest.mark.timeout(60)
@pytest.mark.parametrize("body", HOSTILE_MUTATES.values(), ids=HOSTILE_MUTATES.keys())
def test_malformed_mutate_is_refused_in_the_ack(body):
    async def scenario():
        async with SyncServer({"ibf": set(DATASETS["ibf"])}, store=SketchStore()) as server:
            frame = await send_control(server.port, MUTATE_LABEL, body)
            assert frame.kind == FRAME_CONTROL and frame.label == MUTATE_ACK_LABEL
            with pytest.raises(ServiceError, match="JSON object"):
                parse_mutate_ack(frame.payload)
            acked_options, _ = await send_hello(server.port, VALID)
            assert acked_options.difference_bound == 8
            return await afetch_stats("127.0.0.1", server.port)

    stats = asyncio.run(scenario())
    assert stats["mutations"]["rejected"] == 1
    assert stats["mutations"]["applied"] == 0
    assert_sessions_balance(stats)


#: Sizing choices a peer cannot make, each with a hostile value: they are
#: constants of the modules that own them, so a hello naming one is refused
#: as an unknown option before any party is built.
HOSTILE_SIZING = {
    "num_hashes": 3,
    "child_hash_bits": 1,
    "signature_bits": 2**32 - 1,
    "safety_factor": 1e300,
    "estimate_safety": 1e300,
    "level_slack": 1.7e308,
    "initial_bound": 2**32 - 1,
    "max_bound": 2**32 - 1,
    "fallback_to_all_children": False,
}


@pytest.mark.timeout(60)
@pytest.mark.parametrize("name, value", HOSTILE_SIZING.items(), ids=HOSTILE_SIZING.keys())
def test_a_hello_naming_a_sizing_constant_is_refused(name, value):
    instance = sets_of_sets_instance(30, 8, UNIVERSE, 6, seed=4, max_children_touched=3)
    options = {"universe_size": UNIVERSE, "difference_bound": 64}
    hello = {
        **VALID,
        "protocol": "cascading",
        "options": {**options, name: value},
        "stats": PeerStats.of(instance.bob).to_wire(),
    }

    async def scenario():
        async with SyncServer({"cascading": instance.alice}) as server:
            with pytest.raises(ServiceError, match=r"unknown option\(s\) in hello"):
                await send_hello(server.port, hello)
            # The same session without the sizing name is served.
            result = await areconcile(
                "127.0.0.1", server.port, "cascading", instance.bob, **options
            )
            assert result.success and result.recovered == instance.alice
            return await afetch_stats("127.0.0.1", server.port)

    stats = asyncio.run(scenario())
    assert_sessions_balance(stats)
    assert stats["sessions_failed"] == 0
    assert stats["rejected_hellos"] == 1


def test_every_option_has_a_wire_check_that_admits_its_default():
    defaults = ReconcileOptions()
    # The options are facts about the inputs and two tier names: a new field
    # (a sizing knob above all) needs this list edited.
    assert [field.name for field in dataclasses.fields(defaults)] == [
        "seed", "difference_bound", "universe_size", "max_child_size",
        "differing_children_bound", "backend", "field_kernel", "num_top",
        "max_degree", "max_depth",
    ]
    assert set(_OPTION_CHECKS) == set(dataclasses.asdict(defaults))
    for name, check in _OPTION_CHECKS.items():
        assert check(getattr(defaults, name)), name
    options = ReconcileOptions(seed=7, difference_bound=2**32 - 1, max_child_size=12)
    assert options_from_wire(options_to_wire(options)) == options
    assert set(HOSTILE_SIZING).isdisjoint(_OPTION_CHECKS)


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
