"""Tests for the cell store, checked against the reference store, and the batch IBLT APIs."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_store
from reference_store import STORES, new_table, peel_by_round, table_of
from repro.errors import CapacityError, ParameterError
from repro.hashing import Checksum, HashFamily
from repro.hashing import mix as mixing
from repro.iblt import IBLT, IBLTArray, IBLTParameters, backends


def make_params(cells=64, key_bits=32, seed=1, **kwargs):
    return IBLTParameters(num_cells=cells, key_bits=key_bits, seed=seed, **kwargs)


def serialized(table):
    """The table's integer: the library's codec on the NumPy store, the
    reference codec on the reference store."""
    if table.backend == "numpy":
        return table.serialize()
    return reference_store.serialize(table)


def restored(params, encoded, store):
    if store == "numpy":
        return IBLT.deserialize(params, encoded)
    return reference_store.deserialize(params, encoded)


class TestBackendOption:
    @pytest.mark.parametrize("name", [None, "auto", "numpy"])
    def test_accepted_names_all_give_the_one_store(self, name):
        assert IBLT(make_params(), backend=name).backend == "numpy"

    @pytest.mark.parametrize("name", ["gpu", "python", ""])
    def test_unknown_backend_rejected(self, name):
        with pytest.raises(ParameterError, match="unknown cell backend"):
            IBLT(make_params(), backend=name)

    def test_wide_keys_resolve_to_numpy(self):
        wide = make_params(key_bits=80)
        assert IBLT(wide, backend="numpy").backend == "numpy"
        assert IBLT(wide)._store.dense_cells()[1].shape == (64, 2)

    @pytest.mark.parametrize("field", ["checksum_bits", "count_bits"])
    @pytest.mark.parametrize("bits", [65, 72, 128])
    def test_cell_fields_past_one_word_are_refused(self, field, bits):
        with pytest.raises(ParameterError, match=f"{field} must lie in"):
            make_params(**{field: bits})
        with pytest.raises(ParameterError, match=f"{field} must lie in"):
            IBLTParameters.for_difference(8, 32, seed=1, **{field: bits})
        assert getattr(make_params(**{field: 64}), field) == 64


class TestBatchHashingParity:
    """The single-key and array hash APIs must agree bit for bit."""

    KEYS = [0, 1, 5, 99, 12345, 2**32 - 1, 2**63, 2**64 - 1]

    def test_cells_for_matches_cells_for_array(self):
        family = HashFamily(seed=3, num_hashes=4, num_cells=44)
        vector = family.cells_for_array(np.asarray(self.KEYS, dtype=np.uint64))
        assert vector.T.tolist() == [family.cells_for(key) for key in self.KEYS]

    def test_of_key_matches_of_keys_array(self):
        for bits in (16, 32, 64):
            checksum = Checksum(seed=5, bits=bits)
            vector = checksum.of_keys_array(np.asarray(self.KEYS, dtype=np.uint64))
            assert vector.tolist() == [checksum.of_key(key) for key in self.KEYS]


@pytest.mark.parametrize("backend", STORES)
class TestBatchAPI:
    def test_batch_matches_sequential(self, backend):
        params = make_params()
        batched = new_table(params, backend)
        batched.insert_batch(range(50))
        sequential = new_table(params, backend)
        for key in range(50):
            sequential.insert(key)
        assert batched == sequential

    def test_insert_then_delete_batch_empties(self, backend):
        table = new_table(make_params(), backend)
        table.insert_batch(range(100))
        table.delete_batch(range(100))
        assert table.is_structurally_empty()

    def test_legacy_aliases_route_through_batch(self, backend):
        params = make_params()
        via_alias = new_table(params, backend)
        via_alias.insert_all(range(20))
        via_batch = new_table(params, backend)
        via_batch.insert_batch(range(20))
        assert via_alias == via_batch

    def test_empty_batch_is_noop(self, backend):
        table = new_table(make_params(), backend)
        table.insert_batch([])
        assert table.is_structurally_empty()

    def test_batch_rejects_negative_keys(self, backend):
        table = new_table(make_params(), backend)
        with pytest.raises(ParameterError):
            table.insert_batch([1, 2, -3])

    def test_batch_rejects_oversized_keys(self, backend):
        table = new_table(make_params(key_bits=8), backend)
        with pytest.raises(CapacityError):
            table.insert_batch([1, 2, 256])

    def test_batch_rejects_non_integer_keys(self, backend):
        table = new_table(make_params(), backend)
        with pytest.raises(ParameterError):
            table.insert_batch([1, 1.5])
        with pytest.raises(ParameterError):
            table.insert(2.5)
        assert table.is_structurally_empty()

    def test_batch_decode(self, backend):
        params = IBLTParameters.for_difference(60, 32, seed=5)
        keys = set(range(1000, 1050))
        table = table_of(params, keys, backend)
        positive, negative = table.decode()
        assert positive == keys and negative == set()

    def test_repeated_keys_accumulate(self, backend):
        table = new_table(make_params(), backend)
        table.insert_batch([7, 7, 7])
        table.delete_batch([7, 7, 7])
        assert table.is_structurally_empty()


class TestKeyArrayBatches:
    """A ``uint64`` key array is a batch as valid as the list of its keys."""

    @pytest.mark.parametrize("key_bits", [20, 64, 100, 200])
    def test_array_batch_cells_equal_list_batch_cells(self, key_bits):
        rng = random.Random(key_bits)
        keys = [rng.randrange(1 << min(key_bits, 64)) for _ in range(40)] + [0, 7, 7]
        params = make_params(key_bits=key_bits)
        from_list, from_array = IBLT(params), IBLT(params)
        from_list.insert_batch(keys)
        from_array.insert_batch(np.array(keys, dtype=np.uint64))
        assert from_array == from_list
        from_list.delete_batch(keys[:9])
        from_array.delete_batch(np.array(keys[:9], dtype=np.uint64))
        assert from_array == from_list
        assert from_array.serialize() == from_list.serialize()

    def test_array_batch_is_width_checked(self):
        table = IBLT(make_params(key_bits=8))
        with pytest.raises(CapacityError):
            table.insert_batch(np.array([1, 256], dtype=np.uint64))
        assert table.is_structurally_empty()


@pytest.mark.parametrize("backend", STORES)
class TestWideKeyBatches:
    """Batches over keys on both sides of 2**64: one fold per key, either store."""

    SIZES = [0, 1, 11, 12, 13, 36]
    #: share of keys at or above 2**64, per batch
    MIXES = {"narrow": 0.0, "straddling": 0.5, "wide": 1.0}

    @staticmethod
    def batch(size, wide_share, key_bits=201, seed=5):
        rng = random.Random(seed * 1000 + size)
        keys = [
            rng.getrandbits(key_bits) | (1 << 64) if rng.random() < wide_share
            else rng.getrandbits(64)
            for _ in range(size)
        ]
        return keys + keys[:2]  # a repeated key must count twice

    @pytest.mark.parametrize("checksum_bits", [32, 64])
    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equals_a_loop_of_inserts(self, backend, size, mix, checksum_bits):
        params = make_params(cells=40, key_bits=201, checksum_bits=checksum_bits)
        keys = self.batch(size, self.MIXES[mix])
        batched = new_table(params, backend)
        assert batched.backend == backend
        batched.insert_batch(keys)
        batched.delete_batch(keys[: size // 2])
        looped = new_table(params)
        for key in keys:
            looped.insert(key)
        for key in keys[: size // 2]:
            looped.delete(key)
        assert batched._store.snapshot() == looped._store.snapshot()

    @pytest.mark.parametrize("key_bits", [65, 128, 588, 1024])
    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("size", SIZES)
    def test_one_digest_per_wide_key_per_batch(self, backend, size, mix, key_bits, monkeypatch):
        keys = self.batch(size, self.MIXES[mix], key_bits)
        table = new_table(make_params(cells=40, key_bits=key_bits), backend)
        assert table.backend == backend
        blake2b = hashlib.blake2b
        folds = []

        def counting(data=b"", **kwargs):
            if kwargs.get("person") == b"repro-fp64":
                folds.append(data)
            return blake2b(data, **kwargs)

        class CountingState:
            """The pre-keyed fold state a batch of limb rows copies once per row."""

            def copy(self):
                folds.append(None)
                return keyed.copy()

        keyed = mixing._FP64_HASHER
        monkeypatch.setattr(hashlib, "blake2b", counting)
        monkeypatch.setattr(mixing, "_FP64_HASHER", CountingState())
        table.insert_batch(keys)
        assert len(folds) == sum(key >> 64 != 0 for key in keys)
        table.delete_batch(keys)
        assert len(folds) == 2 * sum(key >> 64 != 0 for key in keys)
        assert table.is_structurally_empty()


class TestCrossBackendAgreement:
    """The NumPy store against the reference store: cells, integers, peels."""

    def test_identical_cells_and_serialization(self):
        params = make_params(cells=48, key_bits=40, seed=9)
        keys = [3, 77, 2**39, 123456789]
        reference = table_of(params, keys)
        np_table = IBLT.from_items(params, keys, backend="numpy")
        assert reference._store.snapshot() == np_table._store.snapshot()
        assert reference == np_table
        assert reference_store.serialize(reference) == np_table.serialize()

    @pytest.mark.parametrize("key_bits", [65, 128, 588, 1024])
    def test_wide_keys_agree_cell_for_cell(self, key_bits):
        """Wide, narrow and top-limbs-zero keys in one table: identical cells,
        integers, peel results and peel rounds on both stores."""
        rng = random.Random(key_bits)
        params = IBLTParameters.for_difference(24, key_bits, seed=key_bits)
        shared = [rng.getrandbits(key_bits) for _ in range(40)]
        alice = shared + [rng.getrandbits(key_bits) for _ in range(8)]
        alice += [rng.getrandbits(64), (1 << 64) | rng.getrandbits(8), 0]
        bob = shared + [rng.getrandbits(key_bits) for _ in range(6)] + [2**64 - 1]
        outcomes = {}
        for backend in STORES:
            table = table_of(params, alice, backend)
            table.delete_batch(bob)
            assert table.backend == backend
            result = table.try_decode()
            outcomes[backend] = (
                table._store.snapshot(),
                serialized(table),
                result.success,
                result.positive,
                result.negative,
                peel_by_round(table),
            )
        assert outcomes["reference"] == outcomes["numpy"]
        assert outcomes["numpy"][2:5] == (True, set(alice) - set(bob), set(bob) - set(alice))
        assert len(outcomes["numpy"][5]) >= 2
        encoded = outcomes["numpy"][1]
        for backend in STORES:
            back = restored(params, encoded, backend)
            assert serialized(back) == encoded
            assert back.try_decode().positive == set(alice) - set(bob)

    @pytest.mark.parametrize("key_bits", [8, 64, 65, 588])
    @pytest.mark.parametrize(
        "bad", [1.5, True, -1, "over-wide"], ids=["float", "bool", "negative", "over-wide"]
    )
    def test_identical_outcome_for_odd_keys(self, key_bits, bad):
        key = 1 << key_bits if bad == "over-wide" else bad
        outcomes = []
        for backend in STORES:
            table = new_table(make_params(cells=16, key_bits=key_bits), backend)
            assert table.backend == backend
            try:
                table.insert_batch([3, key])
            except (ParameterError, CapacityError) as error:
                outcomes.append(type(error))
            else:
                outcomes.append(serialized(table))
        assert outcomes[0] == outcomes[1]
        if bad is not True:  # a bool is the key 0 or 1 on both stores
            assert outcomes[0] in (ParameterError, CapacityError)

    def test_full_width_64_bit_keys(self):
        params = make_params(key_bits=64, seed=2)
        keys = [0, 1, 2**63, 2**64 - 1]
        reference = table_of(params, keys)
        np_table = IBLT.from_items(params, keys, backend="numpy")
        assert reference_store.serialize(reference) == np_table.serialize()
        assert np_table.backend == "numpy"
        positive, _ = np_table.decode()
        assert positive == set(keys)

    def test_snapshots_hold_equal_residues(self):
        # Exact counts of 300, -300 and more: both stores report each as its
        # residue in [-8, 8), so cells, equality and serialization agree.
        params = make_params(cells=16, key_bits=20, seed=5, count_bits=4)
        keys = list(range(300))
        tables = []
        for backend in STORES:
            table = table_of(params, keys, backend)
            table.delete_batch([key + 1000 for key in keys] * 2)
            tables.append(table)
        reference, np_table = tables
        counts = reference._store.snapshot()[0]
        assert set(counts) <= set(range(-8, 8))
        assert reference._store.snapshot() == np_table._store.snapshot()
        assert reference == np_table
        assert reference_store.serialize(reference) == np_table.serialize()

    def test_mixed_backend_subtract(self):
        params = make_params(seed=4)
        reference = table_of(params, {1, 2, 3})
        np_table = IBLT.from_items(params, {2, 3, 4})
        positive, negative = reference.subtract(np_table).decode()
        assert positive == {1} and negative == {4}
        positive, negative = np_table.subtract(IBLT.from_items(params, {1, 2, 3})).decode()
        assert positive == {4} and negative == {1}

    def test_mixed_backend_merge(self):
        params = make_params(seed=4)
        reference = table_of(params, {10})
        np_table = IBLT.from_items(params, {20})
        positive, _ = reference.merge(np_table).decode()
        assert positive == {10, 20}
        assert np_table.merge(IBLT.from_items(params, {10})) == reference.merge(np_table)

    def test_decode_results_agree(self):
        params = IBLTParameters.for_difference(40, 32, seed=11)
        alice = set(range(0, 60, 2))
        bob = set(range(0, 60, 3))
        results = []
        for backend in STORES:
            a = table_of(params, alice, backend)
            b = table_of(params, bob, backend)
            difference = a.subtract(b)
            results.append((difference.try_decode(), peel_by_round(difference)))
        assert results[0] == results[1]


@pytest.mark.parametrize("backend", STORES)
class TestSerializationRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        inserted=st.sets(st.integers(min_value=0, max_value=2**20 - 1), max_size=12),
        deleted=st.sets(st.integers(min_value=0, max_value=2**20 - 1), max_size=12),
    )
    def test_round_trip_with_negative_counts(self, backend, inserted, deleted):
        params = make_params(cells=32, key_bits=20, seed=6)
        table = new_table(params, backend)
        table.insert_batch(inserted)
        table.delete_batch(deleted)
        encoded = serialized(table)
        for restore_backend in STORES:
            back = restored(params, encoded, restore_backend)
            assert back == table
            assert serialized(back) == encoded

    def test_deserialized_table_decodes(self, backend):
        params = make_params(cells=32, key_bits=20, seed=6)
        table = new_table(params, backend)
        table.delete_batch([77, 1234])
        back = restored(params, serialized(table), backend)
        result = back.try_decode()
        assert result.success and result.negative == {77, 1234}

    def test_same_items_same_serialization_across_backends(self, backend):
        params = make_params(cells=40, key_bits=24, seed=8)
        items = {5, 99, 12345, 2**24 - 1}
        table = table_of(params, items, backend)
        reference = table_of(params, items)
        assert serialized(table) == reference_store.serialize(reference)


def _reference_scatter(initial, cells, keys, checks, deltas):
    """The cells after a scatter that writes each field of each key
    separately, on Python ints: what :func:`backends.scatter` must give."""
    counts, key_xor, check_xor = (list(array) for array in initial)
    keys = keys.tolist() if keys.ndim == 1 else [tuple(row) for row in keys.tolist()]
    num_keys = len(keys)
    for position, cell in enumerate(cells.tolist()):
        index = position % num_keys
        counts[cell] += deltas if isinstance(deltas, int) else int(deltas[index])
        if isinstance(keys[index], tuple):
            key_xor[cell] = tuple(a ^ b for a, b in zip(key_xor[cell], keys[index]))
        else:
            key_xor[cell] ^= keys[index]
        check_xor[cell] ^= checks[index]
    return counts, key_xor, check_xor


def _as_lists(counts, key_xor, check_xor):
    keys = key_xor.tolist() if key_xor.ndim == 1 else [tuple(row) for row in key_xor.tolist()]
    return counts.tolist(), keys, check_xor.tolist()


#: (key_bits, checksum_bits) pairs whose sum is 63, 64 and 65, plus a key of
#: two limbs: only the first two fit one word.
WIDTHS = [(47, 16), (32, 31), (48, 16), (56, 8), (49, 16), (1, 64), (80, 16)]


class _CountingXor:
    """``np.bitwise_xor`` with its ``at`` calls counted."""

    def __init__(self):
        self.calls = 0

    def at(self, *args):
        self.calls += 1
        np.bitwise_xor.at(*args)


class _NumpyWithCountingXor:
    def __init__(self, xor):
        self.bitwise_xor = xor

    def __getattr__(self, name):
        return getattr(np, name)


class TestSharedScatter:
    """:func:`repro.iblt.backends.scatter`, the one scatter of every table
    build and peel removal, against a field-by-field reference: key and
    checksum share one XOR scatter only when they fit one word and the batch
    is at least as dense as the table."""

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.sampled_from(WIDTHS),
        num_cells=st.integers(min_value=3, max_value=40),
        density=st.sampled_from([0.2, 1.0, 3.0]),
        array_deltas=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cells_equal_the_field_by_field_reference(
        self, widths, num_cells, density, array_deltas, seed
    ):
        key_bits, checksum_bits = widths
        rng = np.random.default_rng(seed)
        num_hashes = 3
        num_keys = max(1, int(density * num_cells / num_hashes))
        num_limbs = -(-key_bits // 64)
        top_bits = key_bits - 64 * (num_limbs - 1)

        def words(shape, bits):
            high = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64) << np.uint64(32)
            low = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64)
            return (high | low) >> np.uint64(64 - bits)

        key_shape = (num_keys,) if num_limbs == 1 else (num_keys, num_limbs)
        keys = words(key_shape, 64)
        if num_limbs == 1:
            keys >>= np.uint64(64 - top_bits)
        else:
            keys[:, 0] >>= np.uint64(64 - top_bits)
        checks = words(num_keys, checksum_bits)
        cells = rng.integers(0, num_cells, size=num_hashes * num_keys)
        deltas = rng.integers(-2, 3, size=num_keys) if array_deltas else int(rng.integers(-2, 3))
        initial = (
            rng.integers(-5, 5, size=num_cells),
            words((num_cells,) + key_shape[1:], 64),
            words(num_cells, checksum_bits),
        )
        arrays = tuple(array.copy() for array in initial)
        backends.scatter(
            arrays, cells.reshape(num_hashes, -1), keys, checks, deltas, key_bits, checksum_bits
        )
        expected = _reference_scatter(_as_lists(*initial), cells, keys, checks.tolist(), deltas)
        assert _as_lists(*arrays) == expected

    @pytest.mark.parametrize("widths", WIDTHS, ids=[f"{k}+{c}" for k, c in WIDTHS])
    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_one_xor_scatter_exactly_for_a_dense_batch_in_one_word(
        self, widths, dense, monkeypatch
    ):
        key_bits, checksum_bits = widths
        params = make_params(cells=60, key_bits=key_bits, checksum_bits=checksum_bits)
        table = IBLT(params)
        # As many cells written as the table holds, or one key fewer.
        count = 60 // params.num_hashes - (0 if dense else 1)
        keys = [key % (1 << key_bits) for key in range(1, 1 + count)]
        xor = _CountingXor()
        monkeypatch.setattr(backends, "_np", _NumpyWithCountingXor(xor))
        table.insert_batch(keys)
        monkeypatch.undo()
        packed = dense and key_bits + checksum_bits <= 64
        assert xor.calls == (1 if packed else 2)
        assert table == table_of(params, keys)

    @settings(max_examples=30, deadline=None)
    @given(
        widths=st.sampled_from(WIDTHS),
        num_keys=st.integers(min_value=1, max_value=120),
        array_deltas=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_store_batches_and_peels_equal_the_reference_store(
        self, widths, num_keys, array_deltas, seed
    ):
        key_bits, checksum_bits = widths
        rng = random.Random(seed)
        params = make_params(cells=45, key_bits=key_bits, checksum_bits=checksum_bits, seed=seed)
        keys = [rng.getrandbits(key_bits) for _ in range(num_keys)]
        deltas = [rng.choice([-1, 1, 2]) for _ in keys] if array_deltas else 1
        outcomes = []
        for store in STORES:
            table = new_table(params, store)
            prepared = table._store.prepare_keys(keys, key_bits)
            array = np.asarray(deltas, dtype=np.int64) if array_deltas else deltas
            table._store.apply_batch(prepared, array, table._family, table._checksum)
            result = table.try_decode()
            outcomes.append((table._store.snapshot(), result.positive, result.negative))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=25, deadline=None)
    @given(
        widths=st.sampled_from(WIDTHS),
        sizes=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_iblt_array_rows_equal_per_row_tables(self, widths, sizes, seed):
        key_bits, checksum_bits = widths
        rng = random.Random(seed)
        params = make_params(cells=24, key_bits=key_bits, checksum_bits=checksum_bits, seed=seed)
        children = [[rng.getrandbits(key_bits) for _ in range(size)] for size in sizes]
        array = IBLTArray(params, children)
        tables = [IBLT.from_items(params, child) for child in children]
        assert array.tables() == tables
        assert array.serialize_all() == [table.serialize() for table in tables]
        assert array.decode_all() == [table.try_decode() for table in tables]
        difference = IBLTArray.from_difference(tables[0], tables)
        if difference is not None:
            assert difference.decode_all() == [
                tables[0].subtract(table).try_decode() for table in tables
            ]

    @pytest.mark.parametrize("widths", WIDTHS[:5], ids=[f"{k}+{c}" for k, c in WIDTHS[:5]])
    def test_a_key_past_key_bits_changes_no_cell(self, widths):
        key_bits, checksum_bits = widths
        table = IBLT(make_params(cells=30, key_bits=key_bits, checksum_bits=checksum_bits))
        table.insert_batch(range(5))
        before = table._store.snapshot()
        with pytest.raises(CapacityError):
            table.insert_batch(list(range(40)) + [1 << key_bits])
        with pytest.raises(CapacityError):
            table.insert_batch(np.array(list(range(40)) + [1 << key_bits], dtype=np.uint64))
        assert table._store.snapshot() == before
