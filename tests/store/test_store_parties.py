"""Byte-identity pins: a store-backed party is indistinguishable on the
wire from its from-scratch twin -- same labels, same charged bits, same
serialized bytes, frame for frame -- and recovers the same sets."""

import hashlib
import random

import pytest

from repro.cluster import KVRecord, VersionedKV
from repro.cluster.parties import kv_context, kv_parties
from repro.protocols.options import ReconcileOptions
from repro.protocols.parties.setrecon import SetReconContext, ibf_parties
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


def kv_pair():
    """Two replicas sharing 40 records and holding 5 one-sided records each."""
    left, right = VersionedKV(0, seed=SEED), VersionedKV(1, seed=SEED)
    common = [
        KVRecord(key=f"shared-{i}", version=i + 1, writer=0, value=f"c{i}")
        for i in range(40)
    ]
    left.merge_records(common)
    right.merge_records(common)
    for i in range(5):
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
@pytest.mark.parametrize("family", ["store", "kv"])
def test_stored_party_is_byte_identical_to_scratch(family, server_role, bound):
    if family == "store":
        server_set, client_set = make_instance()
        reference_frames, reference = scratch_frames(
            server_set, client_set, bound, server_role
        )
        view = make_view(server_set, materialize=True)
        frames, result = stored_frames(view, client_set, bound, server_role)
        assert result.total_bits == reference.total_bits
        assert result.num_rounds == reference.num_rounds
    else:
        # After the two-frame summary prelude, kv phase one *is* ibf over
        # the replicas' fingerprint sets: same senders, charged bits and
        # bytes under its own message label.
        left, right = kv_pair()
        reference_frames, reference = scratch_frames(
            left.fingerprints, right.fingerprints, bound, server_role,
            kv_context(ReconcileOptions(seed=SEED)),
        )
        frames, result = kv_frames(left, right, bound, server_role)
        assert [label for _, label, _, _ in frames[:2]] == ["kv summary", "kv verdict"]
        frames = [
            (sender, label.replace("kv fingerprint IBLT", "set IBLT"), bits, data)
            for sender, label, bits, data in frames[2 : 2 + len(reference_frames)]
        ]
    assert frames == reference_frames
    assert result.success and reference.success


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
_KNOWN_ALICE = "93458227ad2aea46bd4af97504ed3939c9c7aefef32e3b97fae56f7ae087e36a"
_UNKNOWN_ALICE = "00aaa768d17490d404e2b9b755ab9e53cd2b5bc466adbe533cb873e4a29f838f"
_KNOWN_BOB = "6a0692172b993908e6490ec5fcc79eac0ddab74c25b7da1be11bbe41574eb353"
_UNKNOWN_BOB = "564ffd2b79ecfe023502d1a4d335528426591fbfbf71451cad7a927fd13e83f6"
FRAME_PINS = {
    ("scratch", "alice", BOUND): _KNOWN_ALICE,
    ("scratch", "alice", None): _UNKNOWN_ALICE,
    ("scratch", "bob", BOUND): _KNOWN_BOB,
    ("scratch", "bob", None): _UNKNOWN_BOB,
    ("store", "alice", BOUND): _KNOWN_ALICE,
    ("store", "alice", None): _UNKNOWN_ALICE,
    ("store", "bob", BOUND): _KNOWN_BOB,
    ("store", "bob", None): _UNKNOWN_BOB,
    ("kv", "alice", BOUND): "08b11d12330a4ce4d04d2368845d16cf52926b24b55f48c8d958ae23d259cb5d",
    ("kv", "alice", None): "f90b2f38774bc916b6503386c31b7c6caec1e4c0fbd31b0573fd33993e0333a4",
    ("kv", "bob", BOUND): "304a23becdb13557e64989c46c238d5b6c00f2f478e80a7871f4b5876fb2674c",
    ("kv", "bob", None): "9a66965590b2ddc361f57b126f0aebe3a2cfd392c6a8262f1ad454c165ad5303",
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
