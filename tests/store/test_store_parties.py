"""Byte-identity pins: a store-backed party is indistinguishable on the
wire from its from-scratch twin -- same labels, same charged bits, same
serialized bytes, frame for frame -- and recovers the same sets."""

import hashlib
import random

import pytest

from repro.cluster import KVRecord, VersionedKV
from repro.cluster.parties import REQUEST_CODEC, kv_context, kv_parties
from repro.protocols.options import ReconcileOptions
from repro.iblt import IBLT, DecodeResult
from repro.protocols.parties.setrecon import (
    SetReconContext,
    SetSource,
    _verified_difference,
    ibf_parties,
    ladder_alice,
    ladder_bob_difference,
    ladder_rungs,
    set_verification_hash,
)
from repro.protocols.session import run_session
from repro.protocols.transports import SerializingTransport
from repro.store import SketchConfig, SketchStore, StoreView
from repro.store.parties import stored_ibf_party

UNIVERSE = 1 << 24
SEED = 2018
BOUND = 24


class RecordingTransport(SerializingTransport):
    """A serializing transport that also keeps every frame's exact bytes."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def on_send(self, sender, send):
        data = super().on_send(sender, send)
        self.frames.append((sender, send.label, send.size_bits, data))
        return data


def make_instance(seed=SEED, size=400, differences=10):
    rng = random.Random(seed)
    server_set = set(rng.sample(range(UNIVERSE), size))
    client_set = set(server_set)
    for element in rng.sample(sorted(server_set), differences // 2):
        client_set.discard(element)
    while len(client_set) < size + differences - differences // 2 - differences // 2:
        element = rng.randrange(UNIVERSE)
        if element not in server_set:
            client_set.add(element)
    return server_set, client_set


def make_view(server_set, *, materialize=False, mutations=0):
    """A store view over ``server_set``, optionally arriving at that set via
    ``mutations`` incremental batches (so live-maintained state is tested,
    not just a fresh encode)."""
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore()
    if mutations:
        rng = random.Random(SEED + 5)
        history = set(server_set)
        removed = []
        for _ in range(mutations):
            victim = rng.choice(sorted(history))
            history.discard(victim)
            removed.append(victim)
        view = StoreView(store, "server", config, history, materialize=materialize)
        # Prime every sketch kind, then mutate back to the real set.
        view.table(BOUND)
        view.estimator(1)
        view.estimator(2)
        _ = view.set_hash
        for victim in removed:
            store.apply("server", [victim], [])
            history.add(victim)
        assert history == server_set
        view.dataset = server_set
        return view
    return StoreView(store, "server", config, server_set, materialize=materialize)


def kv_pair(unique=5):
    """Two replicas sharing 40 records and holding ``unique`` one-sided records each."""
    left, right = VersionedKV(0, seed=SEED), VersionedKV(1, seed=SEED)
    common = [
        KVRecord(key=f"shared-{i}", version=i + 1, writer=0, value=f"c{i}")
        for i in range(40)
    ]
    left.merge_records(common)
    right.merge_records(common)
    for i in range(unique):
        left.put(f"left-{i}", f"lv{i}")
        right.put(f"right-{i}", f"rv{i}")
    return left, right


def scratch_frames(server_set, client_set, bound, server_role, ctx=None):
    ctx = ctx or SetReconContext(UNIVERSE, SEED)
    alice, bob = ibf_parties(
        server_set if server_role == "alice" else client_set,
        client_set if server_role == "alice" else server_set,
        bound,
        ctx,
    )
    transport = RecordingTransport()
    result = run_session(alice, bob, transport=transport)
    return transport.frames, result


def stored_frames(view, client_set, bound, server_role):
    ctx = SetReconContext(UNIVERSE, SEED)
    server_party = stored_ibf_party(server_role, view, bound)
    _, client_bob = ibf_parties(set(), client_set, bound, ctx)
    client_alice, _ = ibf_parties(client_set, set(), bound, ctx)
    if server_role == "alice":
        alice, bob = server_party, client_bob
    else:
        alice, bob = client_alice, server_party
    transport = RecordingTransport()
    result = run_session(alice, bob, transport=transport)
    return transport.frames, result


def kv_frames(left, right, bound, left_role):
    """One gossip session; ``left_role`` says which side ``left`` plays."""
    ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=bound))
    pair = (left, right) if left_role == "alice" else (right, left)
    transport = RecordingTransport()
    result = run_session(*kv_parties(*pair, bound, ctx), transport=transport)
    return transport.frames, result


@pytest.mark.parametrize("server_role", ["alice", "bob"])
@pytest.mark.parametrize("bound", [BOUND, None])
def test_stored_party_is_byte_identical_to_scratch(server_role, bound):
    server_set, client_set = make_instance()
    reference_frames, reference = scratch_frames(
        server_set, client_set, bound, server_role
    )
    view = make_view(server_set, materialize=True)
    frames, result = stored_frames(view, client_set, bound, server_role)
    assert result.total_bits == reference.total_bits
    assert result.num_rounds == reference.num_rounds
    assert frames == reference_frames
    assert result.success and reference.success


@pytest.mark.parametrize("bound", [64, BOUND])
def test_every_kv_rung_is_byte_identical_to_a_scratch_table(bound):
    """kv's phase one is the fold ladder, not ibf's frames: every rung a
    replica's live view serves (start tables and upper halves alike) is the
    table ``IBLT.from_items`` builds at the rung's parameters."""
    left, _ = kv_pair()
    ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=bound))
    view = left.view_for(SketchConfig(ctx.universe_size, ctx.seed))
    rungs, _ = ladder_rungs(ctx, bound, 0)
    assert len(rungs) == (3 if bound == 64 else 1)
    for params in rungs:
        served = view.rung_table(bound, params.num_cells)
        scratch = IBLT.from_items(params, left.fingerprints)
        assert served.params == params
        assert served.serialize() == scratch.serialize()
    for params in rungs[1:]:
        assert view.rung_table(bound, params.num_cells).upper_half().serialize() == (
            IBLT.from_items(params, left.fingerprints).upper_half().serialize()
        )


@pytest.mark.parametrize("server_role", ["alice", "bob"])
def test_kv_phase_one_is_the_ladder_over_plain_sets(server_role):
    """The fold ladder is written against the sketch-source seam: over the
    replicas' fingerprint sets as plain sets (every rung built from scratch)
    it sends kv's phase-one frames byte for byte, growth steps included."""
    left, right = kv_pair(unique=25)  # d = 50 at bound 64: too many for 32 cells
    bound = 64
    ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=bound))
    alice, bob = (left, right) if server_role == "alice" else (right, left)

    def scratch_alice():
        outcome, _ = yield from ladder_alice(
            SetSource(alice.fingerprints, ctx), bound, len(bob), REQUEST_CODEC,
            label="kv fingerprint IBLT",
        )
        return outcome

    def scratch_bob():
        outcome, difference = yield from ladder_bob_difference(
            SetSource(bob.fingerprints, ctx), bound, len(alice), REQUEST_CODEC,
            label="kv grow",
        )
        assert difference.positive == alice.fingerprints - bob.fingerprints
        return outcome

    transport = RecordingTransport()
    reference = run_session(scratch_alice(), scratch_bob(), transport=transport)
    frames, result = kv_frames(left, right, bound, server_role)
    assert reference.success and result.success
    assert "kv grow" in [label for _, label, _, _ in transport.frames]
    assert frames[2 : 2 + len(transport.frames)] == transport.frames


@pytest.mark.parametrize("bound", [BOUND, None])
def test_stored_party_stays_identical_after_incremental_history(bound):
    """The live-maintained sketches (not a fresh encode) produce the bytes."""
    server_set, client_set = make_instance()
    reference_frames, _ = scratch_frames(server_set, client_set, bound, "alice")
    view = make_view(server_set, mutations=7)
    frames, result = stored_frames(view, client_set, bound, "alice")
    assert frames == reference_frames
    assert result.success


def test_stored_bob_materializes_the_reconciled_set():
    server_set, client_set = make_instance()
    view = make_view(server_set, materialize=True)
    _, result = stored_frames(view, client_set, BOUND, "bob")
    assert result.success
    assert result.recovered == client_set


def test_stored_bob_skips_materialization_by_default():
    server_set, client_set = make_instance()
    view = make_view(server_set)
    _, result = stored_frames(view, client_set, BOUND, "bob")
    assert result.success
    assert result.recovered is None
    assert result.details.get("served_from_store")


def bob_party(source, bob_set, bound):
    """Bob's ``ibf`` party over ``bob_set`` from either sketch source."""
    if source == "store":
        return stored_ibf_party("bob", make_view(bob_set), bound)
    return ibf_parties(set(), bob_set, bound, SetReconContext(UNIVERSE, SEED))[1]


@pytest.mark.parametrize("source", ["scratch", "store"])
def test_bob_rejects_dishonest_hash(source):
    """A wrong hash from alice fails verification, whatever serves bob."""
    bob_set, alice_set = make_instance()
    ctx = SetReconContext(UNIVERSE, SEED)

    def lying_alice():
        gen, _ = ibf_parties(alice_set, set(), BOUND, ctx)
        send = next(gen)
        table, set_hash, size = send.payload
        doctored = send.__class__(
            send.label, send.size_bits,
            payload=(table, set_hash ^ 1, size), codec=send.codec,
        )
        yield doctored
        return (yield from gen)

    result = run_session(
        lying_alice(), bob_party(source, bob_set, BOUND),
        transport=SerializingTransport(),
    )
    assert not result.success and result.recovered is None
    assert result.details["failure"] == "verification-hash"


@pytest.mark.parametrize("source", ["scratch", "store"])
def test_a_key_peeled_with_both_signs_never_verifies(source):
    """A false pure cell and its echo can put one key in both halves of a
    peel.  The store's O(d) XOR-fold hash and size toggle that key in and
    out again, so they would pass it: bob's verification refuses it on
    either source (it once let a small ladder rung through)."""
    bob_set, alice_set = make_instance()
    ctx = SetReconContext(UNIVERSE, SEED)
    added, removed = alice_set - bob_set, bob_set - alice_set
    echo = next(key for key in range(UNIVERSE) if key not in alice_set | bob_set)
    bob = make_view(bob_set) if source == "store" else SetSource(bob_set, ctx)
    alice_hash = set_verification_hash(SEED, alice_set)
    outcome, difference = _verified_difference(
        bob, DecodeResult(True, added | {echo}, removed | {echo}), alice_hash, len(alice_set)
    )
    assert not outcome.success and difference is None
    assert outcome.details["failure"] == "verification-hash"
    # The honest difference verifies: the refusal is the echo's doing.
    outcome, difference = _verified_difference(
        bob, DecodeResult(True, added, removed), alice_hash, len(alice_set)
    )
    assert outcome.success and difference.positive == added


@pytest.mark.parametrize("source", ["scratch", "store"])
def test_undersized_bound_is_a_detected_peel_failure(source):
    """``difference_bound`` too small: bob reports the failed peel, never a set."""
    bob_set, alice_set = make_instance(differences=60)
    alice, _ = ibf_parties(alice_set, set(), 2, SetReconContext(UNIVERSE, SEED))
    result = run_session(
        alice, bob_party(source, bob_set, 2), transport=SerializingTransport()
    )
    assert not result.success and result.recovered is None
    assert result.details["failure"] == "iblt-peel"
    assert result.details.get("served_from_store", False) == (source == "store")


# ---------------------------------------------------------------------------
# Transcript identity of the whole IBLT set family, pinned as literals
# ---------------------------------------------------------------------------


def pinned_sets():
    """A fixed instance built without ``random`` (stable on every interpreter)."""
    server_set = {(i * 2654435761) % UNIVERSE for i in range(1, 401)}
    client_set = set(sorted(server_set)[5:]) | {
        (i * 40503 + 17) % UNIVERSE for i in range(1, 6)
    }
    assert len(server_set ^ client_set) == 10
    return server_set, client_set


def family_frames(family, server_role, bound):
    """The recorded frames of one session of ``family`` (scratch/store/kv).

    ``server_role`` says which side holds the server set (scratch, store) or
    the left replica (kv, where both sides are served from live sketches).
    """
    if family == "kv":
        return kv_frames(*kv_pair(), bound, server_role)
    server_set, client_set = pinned_sets()
    if family == "scratch":
        return scratch_frames(server_set, client_set, bound, server_role)
    return stored_frames(make_view(server_set), client_set, bound, server_role)


def frames_digest(frames):
    digest = hashlib.sha256()
    for sender, label, size_bits, data in frames:
        digest.update(f"{sender}|{label}|{size_bits}|{len(data)}|".encode())
        digest.update(data)
    return digest.hexdigest()


#: SHA-256 over (sender, label, charged bits, bytes) of every frame, recorded
#: at the commit *before* the three party modules were folded into one flow
#: (3b3dd2e).  Scratch and store share a digest per case: that is the point.
#: The six unknown-bound entries were re-recorded once since, when the L0
#: estimator moved from keyed BLAKE2b to the splitmix64 mixer: the estimator
#: frame keeps its 8,192 bits and its layout and carries other counters (and
#: the kv pair now meets one bucket collision: estimate 9, bound 19).  The
#: four kv entries were re-recorded once more when kv sessions gained the
#: two-frame summary prelude ahead of the same ibf frames.  The six
#: unknown-bound entries were re-recorded a second time when the estimator
#: frame became the compact one (levels up to the deepest non-zero counter,
#: each dense or sparse): the same counters in 1,705 bits here instead of
#: 8,192, and the same estimates and bounds, so ``_UNKNOWN_DETAILS`` held.
#: All twelve were re-recorded once more when the default IBLT cell narrowed
#: to a 4-bit wrapped count and a 16-bit checksum; the details held.  The
#: four kv entries were re-recorded once more when kv's known-bound phase one
#: became the fold ladder: the verdict carries alice's size when the states
#: differ, the table message drops its size field, and bob's pull gains the
#: growth request's leading bit (bound 24 is a one-rung ladder, so no growth
#: frame); the details held.
_KNOWN_ALICE = "3d5e04d798bd558866e7639507913c12cfc46d357f619c2a850f0fd5435168b1"
_UNKNOWN_ALICE = "bc853e67c67e3083ebfc236a894c77ed75b8ed2ea0109905b83f93797c48bda3"
_KNOWN_BOB = "aff31bc28d2506996d1d251fa45790d55a489b683a8855dc3d67b99451f751d8"
_UNKNOWN_BOB = "c170ce9ef4c79b55064568a7e3775192b1d0da97214e822f1b6c1783c13313da"
FRAME_PINS = {
    ("scratch", "alice", BOUND): _KNOWN_ALICE,
    ("scratch", "alice", None): _UNKNOWN_ALICE,
    ("scratch", "bob", BOUND): _KNOWN_BOB,
    ("scratch", "bob", None): _UNKNOWN_BOB,
    ("store", "alice", BOUND): _KNOWN_ALICE,
    ("store", "alice", None): _UNKNOWN_ALICE,
    ("store", "bob", BOUND): _KNOWN_BOB,
    ("store", "bob", None): _UNKNOWN_BOB,
    ("kv", "alice", BOUND): "fb18a6057ee93a7ad4aa3e45fea753440651f43e9871b73a374a814a583ac756",
    ("kv", "alice", None): "2eb6ed2cd61e394f8244a4143fce51031794da6b629e38b6d6e09910e02b463a",
    ("kv", "bob", BOUND): "63b6503826feefd735fcaea98f1327dff2f341d04867cdab408f29014855ecb6",
    ("kv", "bob", None): "1a41df47988171b39219b4c6a41a9bf3032f3e87bf24ae6a4f851e562279c3a1",
}

#: ``ReconciliationResult.details`` of the same sessions at the same commit
#: (``kv_apply`` shown as its record count), by family and known/unknown.
_UNKNOWN_DETAILS = {
    "scratch": {"estimated_difference": 10, "difference_bound_used": 21},
    "store": {"estimated_difference": 10, "difference_bound_used": 21},
    "kv": {"estimated_difference": 9, "difference_bound_used": 19},
}
_DETAILS = {
    "scratch": {"difference_found": 10, "failure": None},
    "store": {"difference_found": 10, "failure": None, "served_from_store": True},
    "kv": {
        "difference_found": 10,
        "failure": None,
        "served_from_store": True,
        "kv_apply": 5,
        "kv_sent": 5,
        "kv_pushed": 5,
        "kv_in_sync": False,
    },
}


@pytest.mark.parametrize("case", sorted(FRAME_PINS, key=repr), ids=repr)
def test_family_sessions_match_the_recorded_pins(case):
    family, _, bound = case
    frames, result = family_frames(*case)
    assert result.success
    assert frames_digest(frames) == FRAME_PINS[case]
    details = dict(result.details)
    if "kv_apply" in details:
        details["kv_apply"] = len(details["kv_apply"])
    assert details == {**_DETAILS[family], **({} if bound else _UNKNOWN_DETAILS[family])}
