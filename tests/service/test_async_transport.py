"""The asyncio transport: shared frame format, clean failures, byte counters."""

import asyncio
import random

import pytest

import repro
from repro.errors import ReconciliationError, ReproError
from repro.protocols import PartyOutcome, Receive, Send
from repro.protocols.options import ReconcileOptions
from repro.protocols.parties.setrecon import SetReconContext, ibf_parties
from repro.protocols.transports import FRAME_CONTROL, FRAME_HEADER, FRAME_MESSAGE
from repro.protocols.wire import PayloadCodec
from repro.service.transport import AsyncSocketTransport, run_party_async

UNIVERSE = 1 << 20
SEED = 2018


class WordCodec(PayloadCodec):
    def write(self, writer, payload):
        writer.write(payload, 64)

    def read(self, reader):
        return reader.read(64)


async def paired_transports():
    """Two AsyncSocketTransports joined by a real localhost TCP connection."""
    accepted = asyncio.get_running_loop().create_future()

    async def on_connect(reader, writer):
        accepted.set_result((reader, writer))

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client_reader, client_writer = await asyncio.open_connection("127.0.0.1", port)
    server_reader, server_writer = await accepted
    alice = AsyncSocketTransport(client_reader, client_writer, "alice")
    bob = AsyncSocketTransport(server_reader, server_writer, "bob")
    return alice, bob, server


@pytest.mark.timeout(60)
def test_async_session_matches_in_memory_session():
    rng = random.Random(SEED)
    alice_set = set(rng.sample(range(UNIVERSE), 300))
    bob_set = (alice_set - set(list(alice_set)[:4])) | {UNIVERSE - 1}
    options = ReconcileOptions(seed=SEED, universe_size=UNIVERSE)
    reference = repro.reconcile(
        alice_set, bob_set, protocol="ibf", options=options
    )

    async def scenario():
        alice_t, bob_t, server = await paired_transports()
        ctx = SetReconContext(UNIVERSE, SEED)
        alice_party, _ = ibf_parties(alice_set, set(), None, ctx)
        _, bob_party = ibf_parties(set(), bob_set, None, ctx)
        (alice_done, bob_done) = await asyncio.gather(
            run_party_async(alice_party, alice_t),
            run_party_async(bob_party, bob_t),
        )
        counters = (
            alice_t.bytes_sent, alice_t.bytes_received,
            bob_t.bytes_sent, bob_t.bytes_received,
        )
        await alice_t.aclose()
        await bob_t.aclose()
        server.close()
        await server.wait_closed()
        return alice_done, bob_done, counters

    (alice_outcome, alice_transcript), (bob_outcome, bob_transcript), counters = (
        asyncio.run(scenario())
    )
    assert bob_outcome.success and bob_outcome.recovered == alice_set
    assert bob_outcome.recovered == reference.recovered
    # Both endpoints rebuild the same transcript, matching the in-process run.
    meta = lambda t: [(m.sender, m.label, m.size_bits) for m in t.messages]
    assert meta(alice_transcript) == meta(bob_transcript)
    assert meta(bob_transcript) == meta(reference.transcript)
    # Nothing is received that was not sent (a trailing FIN may go unread by
    # a peer whose party already finished).
    assert 0 < counters[3] <= counters[0]
    assert 0 < counters[1] <= counters[2]


@pytest.mark.timeout(60)
def test_peer_vanishing_mid_frame_raises_cleanly():
    async def scenario():
        alice_t, bob_t, server = await paired_transports()
        # Alice writes half a header and disappears.
        alice_t.writer.write(FRAME_HEADER.pack(FRAME_MESSAGE, 0, 0, 0, 8)[:6])
        await alice_t.writer.drain()
        await alice_t.aclose()
        try:
            with pytest.raises(ReconciliationError, match="mid-frame"):
                await bob_t.receive_frame()
        finally:
            await bob_t.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())


@pytest.mark.timeout(60)
def test_crashing_party_sends_fin_and_peer_aborts():
    async def scenario():
        alice_t, bob_t, server = await paired_transports()

        def crashing():
            yield Send("word", 64, payload=3, codec=WordCodec())
            raise ReproError("async crash")

        def patient():
            first = yield Receive(WordCodec())
            second = yield Receive(WordCodec())
            from repro.protocols import END_OF_SESSION

            return PartyOutcome(second is not END_OF_SESSION)

        async def run_alice():
            with pytest.raises(ReproError, match="async crash"):
                await run_party_async(crashing(), alice_t)

        alice_result, (bob_outcome, bob_transcript) = await asyncio.gather(
            run_alice(), run_party_async(patient(), bob_t)
        )
        await alice_t.aclose()
        await bob_t.aclose()
        server.close()
        await server.wait_closed()
        return bob_outcome, bob_transcript

    bob_outcome, bob_transcript = asyncio.run(scenario())
    assert not bob_outcome.success  # aborted on END_OF_SESSION, no hang
    assert bob_transcript.total_bits == 64


@pytest.mark.timeout(60)
def test_unexpected_control_frame_mid_session_is_an_error():
    async def scenario():
        alice_t, bob_t, server = await paired_transports()
        await alice_t.send_frame(FRAME_CONTROL, "bogus", payload=b"{}")
        try:
            with pytest.raises(ReconciliationError, match="unexpected frame kind"):
                await bob_t.receive_message()
        finally:
            await alice_t.aclose()
            await bob_t.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(scenario())
