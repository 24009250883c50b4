"""Admission control: token buckets, the in-flight cap, and the coded
refusal path -- a shed client gets a typed error, never a hang or a bare
``OSError``."""

import asyncio
import random
import socket

import pytest

from repro.errors import (
    ParameterError,
    ReconciliationError,
    ServiceError,
    SessionRejectedError,
)
from repro.protocols import pack_frame, read_frame
from repro.protocols.options import ReconcileOptions
from repro.protocols.transports import FRAME_CONTROL
from repro.service import (
    REJECT_AT_CAPACITY,
    REJECT_RATE_LIMITED,
    AdmissionController,
    AdmissionPolicy,
    SyncServer,
    areconcile,
)
from repro.service.admission import TokenBucket
from repro.service.hello import ACK_LABEL, HELLO_LABEL, Hello, PeerStats, parse_ack
from repro.service.hello import options_to_wire

UNIVERSE = 1 << 20
SEED = 2018


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, now=clock())
        assert bucket.try_take(clock())
        assert bucket.try_take(clock())
        assert not bucket.try_take(clock())  # burst exhausted
        clock.advance(1.0)
        assert bucket.try_take(clock())  # one token refilled
        assert not bucket.try_take(clock())

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, now=clock())
        clock.advance(100.0)  # idle for ages: still only `burst` available
        taken = sum(bucket.try_take(clock()) for _ in range(10))
        assert taken == 3


class TestAdmissionPolicy:
    def test_disabled_when_no_knobs(self):
        assert not AdmissionPolicy().enabled
        assert AdmissionPolicy(max_inflight=4).enabled
        assert AdmissionPolicy(client_rate=1.0).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"client_rate": 0.0},
            {"client_rate": 1.0, "client_burst": 0.0},
            {"max_tracked_clients": 0},
        ],
    )
    def test_rejects_nonpositive_knobs(self, kwargs):
        with pytest.raises(ParameterError):
            AdmissionPolicy(**kwargs)


class TestAdmissionController:
    def test_capacity_cap_and_release(self):
        controller = AdmissionController(AdmissionPolicy(max_inflight=2))
        assert controller.try_admit("a") is None
        assert controller.try_admit("b") is None
        assert controller.try_admit("c") == REJECT_AT_CAPACITY
        controller.release()
        assert controller.try_admit("c") is None

    def test_per_client_rate_limit(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(client_rate=1.0, client_burst=1.0), clock=clock
        )
        assert controller.try_admit("10.0.0.1") is None
        assert controller.try_admit("10.0.0.1") == REJECT_RATE_LIMITED
        assert controller.try_admit("10.0.0.2") is None  # separate bucket
        clock.advance(1.0)
        assert controller.try_admit("10.0.0.1") is None

    def test_rate_checked_before_capacity(self):
        """A client hammering a full server drains its own bucket: the
        refusal it gets is rate-limited, not at-capacity."""
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(max_inflight=1, client_rate=1.0, client_burst=1.0),
            clock=clock,
        )
        assert controller.try_admit("a") is None  # holds the one slot
        assert controller.try_admit("b") == REJECT_AT_CAPACITY
        assert controller.try_admit("b") == REJECT_RATE_LIMITED

    def test_bucket_table_is_bounded_lru(self):
        clock = FakeClock()
        controller = AdmissionController(
            AdmissionPolicy(
                client_rate=1.0, client_burst=1.0, max_tracked_clients=2
            ),
            clock=clock,
        )
        assert controller.try_admit("a") is None
        assert controller.try_admit("b") is None
        assert controller.try_admit("c") is None  # evicts "a" (oldest)
        # "a" got a fresh bucket, so despite having just spent its token it
        # is admitted again -- bounded memory traded for forgiving evicted
        # clients.
        assert controller.try_admit("a") is None
        assert controller.try_admit("a") == REJECT_RATE_LIMITED


def make_set(size=200):
    rng = random.Random(SEED)
    return set(rng.sample(range(UNIVERSE), size))


def options(client_id=0):
    return ReconcileOptions(
        seed=SEED + client_id, universe_size=UNIVERSE, difference_bound=8
    )


@pytest.mark.timeout(120)
def test_shed_session_surfaces_as_typed_error_not_hang():
    """With max_inflight=1 and a slow in-flight session, the second client
    is refused with a coded ack that raises SessionRejectedError -- which is
    both a ServiceError and a ReconciliationError, so existing retry
    handlers already catch it."""
    server_set = make_set()
    mine = set(server_set)
    mine.add(UNIVERSE - 1)

    async def scenario():
        admission = AdmissionController(AdmissionPolicy(max_inflight=1))
        async with SyncServer(
            {"ibf": server_set}, latency=0.2, admission=admission
        ) as server:
            first = asyncio.create_task(
                areconcile(
                    "127.0.0.1", server.port, "ibf", set(mine),
                    options=options(0), latency=0.2,
                )
            )
            await asyncio.sleep(0.2)  # first session is now holding the slot
            with pytest.raises(SessionRejectedError) as excinfo:
                await areconcile(
                    "127.0.0.1", server.port, "ibf", set(mine), options=options(1)
                )
            assert excinfo.value.code == REJECT_AT_CAPACITY
            assert isinstance(excinfo.value, ServiceError)
            assert isinstance(excinfo.value, ReconciliationError)
            result = await first
            assert result.success and result.recovered == server_set
            assert server.metrics.sessions_shed_capacity == 1
            assert server.metrics.sessions_served == 1

    asyncio.run(scenario())


@pytest.mark.timeout(120)
def test_rejection_frame_parseable_by_blocking_client():
    """The refusal is an ordinary coded ack: the blocking socket client's
    parse_ack turns it into the same typed error."""
    server_set = make_set()

    async def scenario():
        admission = AdmissionController(
            AdmissionPolicy(client_rate=0.001, client_burst=1.0)
        )
        async with SyncServer({"ibf": server_set}, admission=admission) as server:
            port = server.port

            def blocking_hello():
                hello = Hello("ibf", "bob", options_to_wire(options()),
                              PeerStats())
                with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                    sock.sendall(
                        pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0,
                                   hello.to_json())
                    )
                    ack = read_frame(sock)
                    assert ack.label == ACK_LABEL
                    parse_ack(ack.payload)

            # First session drains the one-token bucket...
            await asyncio.to_thread(blocking_hello)
            # ...so the next hello from the same address is shed.
            with pytest.raises(SessionRejectedError) as excinfo:
                await asyncio.to_thread(blocking_hello)
            assert excinfo.value.code == REJECT_RATE_LIMITED
            assert "rate-limited" in str(excinfo.value)
            assert server.metrics.sessions_shed_rate == 1

    asyncio.run(scenario())


@pytest.mark.timeout(120)
def test_mid_handshake_disconnect_leaves_server_healthy():
    """A client that vanishes mid-handshake (partial frame, then close) must
    not wedge the server or leak an admission slot; a client whose peer
    closes mid-handshake gets a ReconciliationError, not a hang."""
    server_set = make_set()

    async def scenario():
        admission = AdmissionController(AdmissionPolicy(max_inflight=4))
        async with SyncServer({"ibf": server_set}, admission=admission) as server:
            port = server.port

            def vanish_mid_handshake():
                hello = Hello("ibf", "bob", options_to_wire(options()),
                              PeerStats())
                frame = pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0,
                                   hello.to_json())
                with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                    sock.sendall(frame[: len(frame) // 2])  # half a hello

            def read_against_closed():
                with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                    sock.sendall(
                        pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0,
                                   Hello("ibf", "bob", options_to_wire(options()),
                                         PeerStats()).to_json())
                    )
                    ack = read_frame(sock)
                    parse_ack(ack.payload)
                    # Now abandon the session mid-protocol; the server's
                    # session task must clean up on its own.

            await asyncio.to_thread(vanish_mid_handshake)
            await asyncio.to_thread(read_against_closed)
            await asyncio.sleep(0.1)  # let the aborted session tasks settle

            # The server still serves complete sessions afterwards, and no
            # admission slot leaked (all four are available again).
            for client_id in range(4):
                result = await areconcile(
                    "127.0.0.1", port, "ibf", set(server_set),
                    options=options(client_id),
                )
                assert result.success and result.recovered == server_set

    asyncio.run(scenario())
