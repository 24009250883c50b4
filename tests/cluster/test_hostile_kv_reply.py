"""Alice's ``kv records`` reply need not be the records bob asked for.

Phase one verifies alice's *fingerprints*; the reply of phase two is
whatever her ``records_for`` chooses to send.  Bob must accept it only when
it hashes to exactly the fingerprints he pulled: a forged record would
otherwise be merged for good (a version of 2**64 - 1 also wedges every
later local write) and spread by gossip.  Likewise a string that is not
UTF-8 is a misbehaving peer, not a bug: it must surface as a ``ReproError``.
"""

import pytest

from repro.cluster import Cluster, KVRecord, VersionedKV
from repro.cluster.parties import KVRecordsCodec, kv_context, kv_parties
from repro.cluster.records import KEY_LENGTH_BITS, read_record
from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError, ReproError
from repro.protocols.options import ReconcileOptions
from repro.protocols.session import Session
from repro.protocols.transports import SerializingTransport
from repro.protocols.wire import WireError

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
    cluster = Cluster(2, seed=SEED, difference_bound=16, max_attempts=2)
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
