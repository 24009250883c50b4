"""Wrapped cell counts through every decode path.

A table is only defined modulo ``2**count_bits``: Alice's table holds all
``n`` keys, so its cells carry counts far past the 4-bit range, and what she
sends is each count's residue.  Bob subtracts his exact counts from those
residues, so every difference cell is right only modulo ``2**count_bits``,
and each decode path must still peel exactly the planted difference.  The
instance is the ``set-known`` shape: n = 4,096 keys, d = 16 (8 / 8), a bound
of 32 (68 cells), k = 4, u = 2^20.
"""

import random

import pytest

import reference_store
from reference_store import STORES, table_of
from repro.cluster import VersionedKV
from repro.cluster.parties import kv_context, kv_parties
from repro.iblt import IBLT, IBLTArray, IBLTParameters
from repro.protocols.options import ReconcileOptions
from repro.protocols.parties.setrecon import SetReconContext, ibf_parties
from repro.protocols.session import run_session
from repro.protocols.transports import SerializingTransport
from repro.store import SketchConfig, SketchStore, StoreView
from repro.store.parties import stored_ibf_party

KEY_BITS = 20
UNIVERSE = 1 << KEY_BITS
SIZE = 4096
HALF = 8
BOUND = 32
SEED = 2018


def planted(key_bits=KEY_BITS, seed=SEED):
    """``(alice, bob)``: ``SIZE`` keys each, ``HALF`` on each side only."""
    rng = random.Random(seed)
    drawn = set()
    while len(drawn) < SIZE + HALF:
        drawn.add(rng.getrandbits(key_bits))
    drawn = sorted(drawn)
    rng.shuffle(drawn)
    shared = set(drawn[: SIZE - HALF])
    alice = shared | set(drawn[SIZE - HALF : SIZE])
    bob = shared | set(drawn[SIZE : SIZE + HALF])
    return alice, bob


def params(key_bits=KEY_BITS):
    table_params = IBLTParameters.for_difference(BOUND, key_bits, seed=SEED)
    assert (table_params.num_cells, table_params.count_bits) == (68, 4)
    return table_params


def sent(table):
    """Alice's table as Bob receives it: through the wire, residues only."""
    if table.backend == "numpy":
        return IBLT.deserialize(table.params, table.serialize())
    return reference_store.deserialize(table.params, reference_store.serialize(table))


def max_exact_count(table):
    return max(int(count) for count in table._store._counts)


def assert_planted(result, alice, bob):
    assert result.success
    assert (result.positive, result.negative) == (alice - bob, bob - alice)


@pytest.mark.parametrize("backend", STORES)
def test_the_subtracted_table_peels_on_both_stores(backend):
    alice, bob = planted()
    alice_table = table_of(params(), alice, backend)
    assert alice_table.backend == backend
    assert max_exact_count(alice_table) > 1 << 7  # far past [-8, 8)
    received = sent(alice_table)
    assert received == alice_table
    assert_planted(
        received.subtract(table_of(params(), bob, backend)).try_decode(),
        alice, bob,
    )


def test_the_tensor_path_peels_every_wrapped_difference():
    alice, bob = planted()
    received = sent(IBLT.from_items(params(), alice, backend="numpy"))
    others = [set(list(bob)[:-HALF]), bob - {min(bob)}]
    array = IBLTArray.from_difference(
        received,
        [IBLT.from_items(params(), keys, backend="numpy") for keys in [bob, *others]],
    )
    assert array is not None and array.vectorized
    results = array.decode_all()
    assert_planted(results[0], alice, bob)
    assert results == [array.table(row).try_decode() for row in range(len(array))]


@pytest.mark.parametrize("backend", STORES)
def test_wide_keys_peel_a_wrapped_difference(backend):
    """Keys past 64 bits, as in a cascade's parent table of serialized
    children: two limbs per key on the NumPy store."""
    alice, bob = planted(key_bits=96)
    alice_table = table_of(params(96), alice, backend)
    assert alice_table.backend == backend
    assert max_exact_count(alice_table) > 1 << 7
    bob_table = table_of(params(96), bob, backend)
    assert_planted(sent(alice_table).subtract(bob_table).try_decode(), alice, bob)


@pytest.mark.parametrize("reopened", [False, True], ids=["live", "reopened"])
@pytest.mark.parametrize("server_role", ["alice", "bob"])
def test_the_store_served_ibf_flow_recovers_the_difference(tmp_path, server_role, reopened):
    """The store's live table is updated in place from exact counts; reopened
    from a snapshot it starts again from residues and keeps applying deltas."""
    server_set, client_set = planted()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    if reopened:
        history = set(server_set)
        removed = sorted(history)[:4]
        history.difference_update(removed)
        StoreView(store, "d", config, history).table(BOUND)
        store.snapshot("d")
        store.close()
        store = SketchStore(tmp_path)
        StoreView(store, "d", config, history).table(BOUND)
        store.apply("d", removed, [], dataset=history)
        history.update(removed)
        assert history == server_set
    view = StoreView(store, "d", config, server_set, materialize=True)
    ctx = SetReconContext(UNIVERSE, SEED)
    server = stored_ibf_party(server_role, view, BOUND)
    if server_role == "alice":
        result = run_session(
            server, ibf_parties(set(), client_set, BOUND, ctx)[1],
            transport=SerializingTransport(),
        )
        assert result.recovered == server_set
    else:
        result = run_session(
            ibf_parties(client_set, set(), BOUND, ctx)[0], server,
            transport=SerializingTransport(),
        )
        assert result.recovered == client_set
    assert result.success and result.details["served_from_store"]
    assert result.details["difference_found"] == 2 * HALF
    store.close()


def test_kv_gossip_recovers_the_wrapped_difference():
    left, right = VersionedKV(0, seed=SEED), VersionedKV(1, seed=SEED)
    for i in range(SIZE - HALF):
        record = left.put(f"shared-{i}", f"v{i}")
        right.merge_records([record])
    for i in range(HALF):
        left.put(f"left-{i}", "l")
        right.put(f"right-{i}", "r")
    ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=BOUND))
    result = run_session(
        *kv_parties(left, right, BOUND, ctx), transport=SerializingTransport()
    )
    assert result.success
    assert result.details["difference_found"] == 2 * HALF
