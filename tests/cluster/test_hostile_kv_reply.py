"""A hostile peer in a ``kv`` session: forged replies, growth requests, sizes.

Alice's ``kv records`` reply need not be the records bob asked for.

Phase one verifies alice's *fingerprints*; the reply of phase two is
whatever her ``records_for`` chooses to send.  Bob must accept it only when
it hashes to exactly the fingerprints he pulled: a forged record would
otherwise be merged for good (a version of 2**64 - 1 also wedges every
later local write) and spread by gossip.  Likewise a string that is not
UTF-8 is a misbehaving peer, not a bug: it must surface as a ``ReproError``.
Phase one's fold ladder takes sizes and growth requests from the peer: none
of them can make alice send past the top rung, which only the shared bound
sets.
"""

import pytest

from repro.cluster import Cluster, KVRecord, VersionedKV
from repro.cluster.parties import (
    REQUEST_CODEC,
    KVRecordsCodec,
    KVSummaryCodec,
    KVVerdictCodec,
    kv_context,
    kv_parties,
    pull_request_bits,
    summary_bits,
    verdict_bits,
)
from repro.cluster.records import KEY_LENGTH_BITS, read_record
from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError, ReproError
from repro.iblt.table import resized
from repro.protocols.options import ReconcileOptions
from repro.protocols.parties.setrecon import (
    GROW,
    GROWTH_REFUSED,
    IBFMessageCodec,
    ladder_alice,
    ladder_rungs,
)
from repro.protocols.party import END_OF_SESSION, PartyOutcome, Receive, Send
from repro.protocols.session import Session
from repro.protocols.transports import SerializingTransport
from repro.protocols.wire import NULL_CODEC, TableCodec, TableWithHashCodec, WireError
from repro.store import SketchConfig, StoreView

SEED = 11
FORGED = KVRecord(key="k0", version=2**64 - 1, writer=2**32 - 1, value="pwned")

REPLIES = {
    "forged": lambda records: (FORGED,) + records[1:],
    "one-missing": lambda records: records[1:],
    "one-duplicated": lambda records: records + records[:1],
}


class HostileKV(VersionedKV):
    """A replica whose value fetch answers with ``reply(honest records)``."""

    reply = staticmethod(lambda records: records)

    def records_for(self, fingerprints):
        return self.reply(super().records_for(fingerprints))


def pair(reply):
    alice, bob = HostileKV(0, seed=SEED), VersionedKV(1, seed=SEED)
    alice.reply = reply
    shared = [KVRecord(key=f"k{i}", version=1, writer=0, value=f"v{i}") for i in range(20)]
    alice.merge_records(shared)
    bob.merge_records(shared)
    for i in range(3):
        alice.put(f"k{i}", f"alice-{i}")
    bob.put("k9", "bob")
    return alice, bob


def run(alice, bob):
    ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=16))
    return Session(*kv_parties(alice, bob, 16, ctx), transport=SerializingTransport()).run()


@pytest.mark.parametrize("reply", REPLIES.values(), ids=REPLIES.keys())
def test_a_reply_that_is_not_what_bob_pulled_fails_his_side(reply):
    result = run(*pair(reply))
    assert not result.bob.success
    assert result.bob.details["failure"] == "kv-records"
    assert "kv_apply" not in result.bob.details


def test_the_honest_reply_still_succeeds():
    # The same harness with the identity reply: the failures above are the
    # reply's doing, not the harness's.
    alice, bob = pair(lambda records: records)
    result = run(alice, bob)
    assert result.alice.success and result.bob.success
    assert sorted(r.key for r in result.bob.details["kv_apply"]) == ["k0", "k1", "k2", "k9"]
    alice.merge_records(result.alice.details["kv_apply"])
    bob.merge_records(result.bob.details["kv_apply"])
    assert alice.digest() == bob.digest()


def test_the_cluster_driver_merges_nothing_from_a_forging_peer():
    cluster = Cluster(2, seed=SEED, difference_bound=16)
    hostile, bob = pair(REPLIES["forged"])
    cluster.replicas.update(node0=hostile, node1=bob)
    before = bob.digest()
    record = cluster.gossip_once("node1", "node0")
    assert not record.success and record.records_applied == 0
    assert bob.digest() == before and bob.get("k0") == "v0"
    bob.put("k0", "still writable")  # the clock was not dragged to 2**64 - 1


def bad_utf8_record():
    writer = BitWriter()
    writer.write(2, KEY_LENGTH_BITS)
    writer.write(0xC328, 16)  # a two-byte lead followed by a non-continuation
    writer.write(0, 64 + 32 + 1 + 24)
    return writer.getvalue()


def test_a_string_that_is_not_utf8_is_a_wire_error():
    assert issubclass(WireError, ReproError)
    with pytest.raises(WireError, match="UTF-8"):
        read_record(BitReader(bad_utf8_record()))
    frame = (1).to_bytes(4, "big") + bad_utf8_record()
    with pytest.raises(WireError, match="UTF-8"):
        KVRecordsCodec().read(BitReader(frame))


def test_a_length_past_the_stream_raises_before_allocating():
    writer = BitWriter()
    writer.write((1 << KEY_LENGTH_BITS) - 1, KEY_LENGTH_BITS)
    writer.write(0x6B, 8)
    with pytest.raises(ParameterError, match="bit stream exhausted"):
        read_record(BitReader(writer.getvalue()))


# ---------------------------------------------------------------------------
# Phase one's fold ladder: growth requests, upper halves and sizes
# ---------------------------------------------------------------------------

LADDER_BOUND = 64  # a 128-cell top rung: rungs of 32 / 64 / 128 cells


def ladder_pair(unique=4):
    alice, bob = VersionedKV(0, seed=SEED), VersionedKV(1, seed=SEED)
    shared = [KVRecord(key=f"k{i}", version=1, writer=0, value=f"v{i}") for i in range(30)]
    alice.merge_records(shared)
    bob.merge_records(shared)
    for i in range(unique):
        alice.put(f"a{i}", "a")
        bob.put(f"b{i}", "b")
    return alice, bob


def ladder_ctx(bound=LADDER_BOUND):
    return kv_context(ReconcileOptions(seed=SEED, difference_bound=bound))


def view_of(replica, ctx):
    return replica.view_for(SketchConfig(ctx.universe_size, ctx.seed))


def run_against(alice_party, bob_party):
    return Session(alice_party, bob_party, transport=SerializingTransport()).run()


def honest_summary(view):
    return Send(
        "kv summary", summary_bits(view.size), payload=(view.set_hash, view.size),
        codec=KVSummaryCodec(),
    )


def receive_start_rung(rungs, start):
    """Receive alice's start rung the way an honest bob does."""
    return Receive(
        TableWithHashCodec(lambda cells: resized(rungs[-1], cells), rungs[start].num_cells)
    )


@pytest.mark.parametrize("bound", [LADDER_BOUND, 24])
def test_a_growth_request_past_the_top_rung_is_refused(bound):
    alice, bob = ladder_pair()
    ctx = ladder_ctx(bound)
    rungs, start = ladder_rungs(ctx, bound, 0)
    view = view_of(bob, ctx)
    answers = []

    def greedy():
        yield honest_summary(view)
        yield Receive(KVVerdictCodec())
        yield receive_start_rung(rungs, start)
        for _ in range(len(rungs) + 1):
            yield Send("kv grow", 1, payload=GROW, codec=REQUEST_CODEC)
            answers.append((yield Receive(NULL_CODEC)))
        return PartyOutcome(True)

    result = run_against(kv_parties(alice, bob, bound, ctx)[0], greedy())
    growth = [m.size_bits for m in result.transcript.messages if m.label.endswith("growth")]
    # One upper half per rung above the start, then nothing bigger: the
    # request past the top ends alice's side with a refusal.
    assert growth == [params.size_bits for params in rungs[start:-1]]
    assert answers[len(growth):] == [END_OF_SESSION] * (len(rungs) + 1 - len(growth))
    assert not result.alice.success
    assert result.alice.details["failure"] == GROWTH_REFUSED
    assert "kv_apply" not in result.alice.details


def test_a_growth_request_after_the_pull_is_never_answered():
    alice, bob = ladder_pair()
    ctx = ladder_ctx()
    view = view_of(bob, ctx)
    rungs, start = ladder_rungs(ctx, LADDER_BOUND, 0)
    late = []

    def pull_then_grow():
        yield honest_summary(view)
        yield Receive(KVVerdictCodec())
        yield receive_start_rung(rungs, start)
        yield Send("kv pull", pull_request_bits((), ()), payload=((), ()), codec=REQUEST_CODEC)
        yield Receive(KVRecordsCodec())
        yield Send("kv grow", 1, payload=GROW, codec=REQUEST_CODEC)
        late.append((yield Receive(NULL_CODEC)))
        return PartyOutcome(True)

    result = run_against(kv_parties(alice, bob, LADDER_BOUND, ctx)[0], pull_then_grow())
    labels = [m.label for m in result.transcript.messages]
    assert labels[-2:] == ["kv records", "kv grow"]
    assert not any(label.endswith("growth") for label in labels)
    assert late == [END_OF_SESSION]


def test_a_growth_request_in_the_unknown_d_flow_is_refused():
    """The estimator-sized flow has one table: there is nothing to grow to."""
    alice, bob = ladder_pair()
    ctx = kv_context(ReconcileOptions(seed=SEED))
    view = view_of(bob, ctx)

    def greedy():
        yield honest_summary(view)
        yield Receive(KVVerdictCodec())
        estimator = view.estimator(1)
        yield Send("difference estimator", estimator.size_bits, payload=estimator,
                   codec=ctx.estimator_codec())
        yield Receive(IBFMessageCodec(ctx, None, self_describing=True))
        yield Send("kv grow", 1, payload=GROW, codec=REQUEST_CODEC)
        return PartyOutcome(True)

    result = run_against(kv_parties(alice, bob, None, ctx)[0], greedy())
    assert result.alice.details["failure"] == GROWTH_REFUSED
    assert result.transcript.messages[-1].label == "kv grow"


def test_a_truncated_upper_half_is_a_wire_error():
    alice, _ = ladder_pair()
    ctx = ladder_ctx()
    upper = view_of(alice, ctx).rung_table(LADDER_BOUND, 128).upper_half()
    codec = TableCodec(upper.params)
    data = codec.encode(upper)
    assert codec.decode(data) == upper
    with pytest.raises(WireError, match="bit stream exhausted"):
        codec.decode(data[:-1])


@pytest.mark.parametrize("forged", [0, 10**9, 2**64 - 1])
def test_a_forged_summary_size_picks_at_most_the_top_rung(forged):
    alice, bob = ladder_pair()
    ctx = ladder_ctx()
    view = view_of(bob, ctx)
    top = ctx.table_params(LADDER_BOUND)

    def forging_bob():
        yield Send(
            "kv summary", summary_bits(forged), payload=(view.set_hash, forged),
            codec=KVSummaryCodec(),
        )
        verdict = yield Receive(KVVerdictCodec())
        yield receive_start_rung(*ladder_rungs(ctx, LADDER_BOUND, abs(verdict - forged)))
        return PartyOutcome(True)

    result = run_against(kv_parties(alice, bob, LADDER_BOUND, ctx)[0], forging_bob())
    # Each forged gap is past the 64-cell rung's capacity: alice starts at
    # the top, and no size can take her further.
    (table,) = [m for m in result.transcript.messages if m.label == "kv fingerprint IBLT"]
    assert table.size_bits == top.size_bits + 64


@pytest.mark.parametrize("forged", [0, 10**9])
def test_a_forged_verdict_size_picks_at_most_the_top_rung(forged):
    alice, bob = ladder_pair(unique=20)
    ctx = ladder_ctx()
    alice_view = view_of(alice, ctx)

    def forging_alice():
        yield Receive(KVSummaryCodec())
        yield Send("kv verdict", verdict_bits(forged), payload=forged, codec=KVVerdictCodec())
        # An honest ladder from the rung the forged size points bob at: the
        # peer size that gives alice bob's gap.
        gap = abs(forged - len(bob))
        outcome, _ = yield from ladder_alice(
            alice_view, LADDER_BOUND, alice_view.size + gap, REQUEST_CODEC,
            label="kv fingerprint IBLT",
        )
        return outcome

    result = run_against(forging_alice(), kv_parties(alice, bob, LADDER_BOUND, ctx)[1])
    tables = [
        m.size_bits for m in result.transcript.messages if m.label.startswith("kv fingerprint")
    ]
    # Whatever the size said, bob never reads past the top rung.
    top = ctx.table_params(LADDER_BOUND)
    assert sum(tables) <= top.size_bits + 64
    # A size other than alice's own is a rejected hash, never a merge.
    assert not result.bob.success
    assert "kv_apply" not in result.bob.details


def test_the_top_rung_comes_from_the_shared_bound():
    for bound in (8, 24, LADDER_BOUND, 500):
        ctx = ladder_ctx(bound)
        for gap in (0, 7, 100, 2**64):
            rungs, start = ladder_rungs(ctx, bound, gap)
            assert rungs[-1] == ctx.table_params(bound)
            assert 0 <= start < len(rungs)


class LyingView(StoreView):
    """A live view whose whole-set hash is off by one bit."""

    @property
    def set_hash(self):
        return super().set_hash ^ 1


def test_a_rejected_hash_grows_to_the_top_and_fails_there():
    """A peel the whole-set hash rejects is grown past like a failed one (a
    false peel on a small rung), up to the top rung, where it fails."""
    alice, bob = ladder_pair()
    ctx = ladder_ctx()
    view = view_of(alice, ctx)
    lying = LyingView(view.store, view.key, view.config, view.dataset)
    rungs, start = ladder_rungs(ctx, LADDER_BOUND, 0)

    def lying_alice():
        summary = yield Receive(KVSummaryCodec())
        yield Send("kv verdict", verdict_bits(view.size), payload=view.size, codec=KVVerdictCodec())
        outcome, _ = yield from ladder_alice(
            lying, LADDER_BOUND, summary[1], REQUEST_CODEC, label="kv fingerprint IBLT"
        )
        return outcome

    result = run_against(lying_alice(), kv_parties(alice, bob, LADDER_BOUND, ctx)[1])
    labels = [m.label for m in result.transcript.messages]
    assert labels.count("kv grow") == len(rungs) - 1 - start == 2
    assert labels[-1] == "kv fingerprint IBLT growth"
    assert not result.bob.success
    assert result.bob.details["failure"] == "verification-hash"
    assert "kv_apply" not in result.bob.details
