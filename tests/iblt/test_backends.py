"""Tests for the pluggable cell-store backends and the batch IBLT APIs."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    available_cell_backends,
    cell_backend_names,
    default_cell_backend,
    resolve_cell_backend,
    set_default_cell_backend,
)
from repro.errors import CapacityError, ParameterError
from repro.hashing import HashFamily
from repro.iblt import IBLT, IBLTParameters, NumpyCellStore

HAS_NUMPY = NumpyCellStore.available()
BACKENDS = ["python"] + (["numpy"] if HAS_NUMPY else [])
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")


def make_params(cells=64, key_bits=32, seed=1, **kwargs):
    return IBLTParameters(num_cells=cells, key_bits=key_bits, seed=seed, **kwargs)


class TestRegistry:
    def test_both_backends_registered(self):
        assert cell_backend_names() == ["numpy", "python"]

    def test_python_always_available(self):
        assert "python" in available_cell_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            IBLT(make_params(), backend="gpu")

    def test_default_is_auto(self):
        assert default_cell_backend() == "auto"

    def test_set_default_round_trip(self):
        set_default_cell_backend("python")
        try:
            assert default_cell_backend() == "python"
            assert IBLT(make_params()).backend == "python"
        finally:
            set_default_cell_backend(None)

    def test_set_default_validates(self):
        with pytest.raises(ParameterError):
            set_default_cell_backend("gpu")

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_BACKEND", "python")
        assert IBLT(make_params()).backend == "python"

    @needs_numpy
    def test_auto_prefers_fastest_vectorized_tier(self):
        assert resolve_cell_backend("auto", make_params()) is NumpyCellStore

    @needs_numpy
    def test_wide_keys_resolve_to_numpy(self):
        wide = make_params(key_bits=80)
        assert resolve_cell_backend("numpy", wide) is NumpyCellStore
        assert IBLT(wide, backend="numpy").backend == "numpy"

    @needs_numpy
    def test_wide_checksums_fall_back_to_python(self):
        wide = make_params(checksum_bits=72)
        assert IBLT(wide, backend="numpy").backend == "python"


@needs_numpy
class TestBatchHashingParity:
    """The scalar and vectorized batch hash APIs must agree bit for bit."""

    KEYS = [0, 1, 5, 99, 12345, 2**32 - 1, 2**63, 2**64 - 1]

    def test_cells_for_many_matches_cells_for_array(self):
        import numpy as np

        family = HashFamily(seed=3, num_hashes=4, num_cells=44)
        scalar = family.cells_for_many(self.KEYS)
        vector = family.cells_for_array(np.asarray(self.KEYS, dtype=np.uint64))
        assert vector.T.tolist() == scalar
        assert scalar == [family.cells_for(key) for key in self.KEYS]

    def test_of_keys_matches_of_keys_array(self):
        import numpy as np

        from repro.hashing import Checksum

        for bits in (16, 32, 64):
            checksum = Checksum(seed=5, bits=bits)
            scalar = checksum.of_keys(self.KEYS)
            vector = checksum.of_keys_array(np.asarray(self.KEYS, dtype=np.uint64))
            assert vector.tolist() == scalar
            assert scalar == [checksum.of_key(key) for key in self.KEYS]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchAPI:
    def test_batch_matches_sequential(self, backend):
        params = make_params()
        batched = IBLT(params, backend=backend)
        batched.insert_batch(range(50))
        sequential = IBLT(params, backend=backend)
        for key in range(50):
            sequential.insert(key)
        assert batched == sequential

    def test_insert_then_delete_batch_empties(self, backend):
        table = IBLT(make_params(), backend=backend)
        table.insert_batch(range(100))
        table.delete_batch(range(100))
        assert table.is_structurally_empty()

    def test_legacy_aliases_route_through_batch(self, backend):
        params = make_params()
        via_alias = IBLT(params, backend=backend)
        via_alias.insert_all(range(20))
        via_batch = IBLT(params, backend=backend)
        via_batch.insert_batch(range(20))
        assert via_alias == via_batch

    def test_empty_batch_is_noop(self, backend):
        table = IBLT(make_params(), backend=backend)
        table.insert_batch([])
        assert table.is_structurally_empty()

    def test_batch_rejects_negative_keys(self, backend):
        table = IBLT(make_params(), backend=backend)
        with pytest.raises(ParameterError):
            table.insert_batch([1, 2, -3])

    def test_batch_rejects_oversized_keys(self, backend):
        table = IBLT(make_params(key_bits=8), backend=backend)
        with pytest.raises(CapacityError):
            table.insert_batch([1, 2, 256])

    def test_batch_rejects_non_integer_keys(self, backend):
        table = IBLT(make_params(), backend=backend)
        with pytest.raises(ParameterError):
            table.insert_batch([1, 1.5])
        with pytest.raises(ParameterError):
            table.insert(2.5)
        assert table.is_structurally_empty()

    def test_batch_decode(self, backend):
        params = IBLTParameters.for_difference(60, 32, seed=5)
        keys = set(range(1000, 1050))
        table = IBLT.from_items(params, keys, backend=backend)
        positive, negative = table.decode()
        assert positive == keys and negative == set()

    def test_repeated_keys_accumulate(self, backend):
        table = IBLT(make_params(), backend=backend)
        table.insert_batch([7, 7, 7])
        table.delete_batch([7, 7, 7])
        assert table.is_structurally_empty()


@pytest.mark.parametrize("backend", BACKENDS)
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

    @pytest.mark.parametrize("checksum_bits", [32, 80])
    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("size", SIZES)
    def test_batch_equals_a_loop_of_inserts(self, backend, size, mix, checksum_bits):
        params = make_params(cells=40, key_bits=201, checksum_bits=checksum_bits)
        keys = self.batch(size, self.MIXES[mix])
        batched = IBLT(params, backend=backend)
        assert batched.backend == (backend if checksum_bits <= 64 else "python")
        batched.insert_batch(keys)
        batched.delete_batch(keys[: size // 2])
        looped = IBLT(params, backend="python")
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
        table = IBLT(make_params(cells=40, key_bits=key_bits), backend=backend)
        assert table.backend == backend
        blake2b = hashlib.blake2b
        folds = []

        def counting(data=b"", **kwargs):
            if kwargs.get("person") == b"repro-fp64":
                folds.append(data)
            return blake2b(data, **kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counting)
        table.insert_batch(keys)
        assert len(folds) == sum(key >> 64 != 0 for key in keys)
        table.delete_batch(keys)
        assert len(folds) == 2 * sum(key >> 64 != 0 for key in keys)
        assert table.is_structurally_empty()


@needs_numpy
class TestCrossBackendAgreement:
    def test_identical_cells_and_serialization(self):
        params = make_params(cells=48, key_bits=40, seed=9)
        keys = [3, 77, 2**39, 123456789]
        py = IBLT.from_items(params, keys, backend="python")
        np_table = IBLT.from_items(params, keys, backend="numpy")
        assert py._store.snapshot() == np_table._store.snapshot()
        assert py == np_table
        assert py.serialize() == np_table.serialize()

    @pytest.mark.parametrize("key_bits", [65, 128, 588, 1024])
    def test_wide_keys_agree_cell_for_cell(self, key_bits, monkeypatch):
        """Wide, narrow and top-limbs-zero keys in one table: identical cells,
        bytes, peel results and peel rounds on both stores."""
        rng = random.Random(key_bits)
        params = IBLTParameters.for_difference(24, key_bits, seed=key_bits)
        shared = [rng.getrandbits(key_bits) for _ in range(40)]
        alice = shared + [rng.getrandbits(key_bits) for _ in range(8)]
        alice += [rng.getrandbits(64), (1 << 64) | rng.getrandbits(8), 0]
        bob = shared + [rng.getrandbits(key_bits) for _ in range(6)] + [2**64 - 1]
        rounds = []

        def counted(name):
            hashed = getattr(HashFamily, name)

            def spying(self, *args):
                rounds.append(name)
                return hashed(self, *args)

            monkeypatch.setattr(HashFamily, name, spying)

        outcomes = {}
        for backend in ("python", "numpy"):
            table = IBLT.from_items(params, alice, backend=backend)
            table.delete_batch(bob)
            assert table.backend == backend
            counted("cells_for_many")
            counted("cells_for_array")
            counted("cells_and_checks_array")
            result = table.try_decode()
            monkeypatch.undo()
            outcomes[backend] = (
                table._store.snapshot(),
                table.serialize(),
                result.success,
                result.positive,
                result.negative,
                len(rounds),
            )
            rounds.clear()
        assert outcomes["python"] == outcomes["numpy"]
        assert outcomes["numpy"][2:5] == (True, set(alice) - set(bob), set(bob) - set(alice))
        assert outcomes["numpy"][5] >= 2
        encoded = outcomes["numpy"][1]
        for backend in ("python", "numpy"):
            restored = IBLT.deserialize(params, encoded, backend=backend)
            assert restored.serialize() == encoded
            assert restored.try_decode().positive == set(alice) - set(bob)

    @pytest.mark.parametrize("key_bits", [8, 64, 65, 588])
    @pytest.mark.parametrize(
        "bad", [1.5, True, -1, "over-wide"], ids=["float", "bool", "negative", "over-wide"]
    )
    def test_identical_outcome_for_odd_keys(self, key_bits, bad):
        key = 1 << key_bits if bad == "over-wide" else bad
        outcomes = []
        for backend in ("python", "numpy"):
            table = IBLT(make_params(cells=16, key_bits=key_bits), backend=backend)
            assert table.backend == backend
            try:
                table.insert_batch([3, key])
            except (ParameterError, CapacityError) as error:
                outcomes.append(type(error))
            else:
                outcomes.append(table.serialize())
        assert outcomes[0] == outcomes[1]
        if bad is not True:  # a bool is the key 0 or 1 on both stores
            assert outcomes[0] in (ParameterError, CapacityError)

    def test_full_width_64_bit_keys(self):
        params = make_params(key_bits=64, seed=2)
        keys = [0, 1, 2**63, 2**64 - 1]
        py = IBLT.from_items(params, keys, backend="python")
        np_table = IBLT.from_items(params, keys, backend="numpy")
        assert py.serialize() == np_table.serialize()
        assert np_table.backend == "numpy"
        positive, _ = np_table.decode()
        assert positive == set(keys)

    def test_snapshots_hold_equal_residues(self):
        # Exact counts of 300, -300 and more: both stores report each as its
        # residue in [-8, 8), so cells, equality and serialization agree.
        params = make_params(cells=16, key_bits=20, seed=5, count_bits=4)
        keys = list(range(300))
        tables = []
        for backend in ("python", "numpy"):
            table = IBLT.from_items(params, keys, backend=backend)
            table.delete_batch([key + 1000 for key in keys] * 2)
            tables.append(table)
        py, np_table = tables
        counts = py._store.snapshot()[0]
        assert set(counts) <= set(range(-8, 8))
        assert py._store.snapshot() == np_table._store.snapshot()
        assert py == np_table
        assert py.serialize() == np_table.serialize()

    def test_mixed_backend_subtract(self):
        params = make_params(seed=4)
        py = IBLT.from_items(params, {1, 2, 3}, backend="python")
        np_table = IBLT.from_items(params, {2, 3, 4}, backend="numpy")
        positive, negative = py.subtract(np_table).decode()
        assert positive == {1} and negative == {4}
        positive, negative = np_table.subtract(py).decode()
        assert positive == {4} and negative == {1}

    def test_mixed_backend_merge(self):
        params = make_params(seed=4)
        py = IBLT.from_items(params, {10}, backend="python")
        np_table = IBLT.from_items(params, {20}, backend="numpy")
        positive, _ = py.merge(np_table).decode()
        assert positive == {10, 20}

    def test_decode_results_agree(self):
        params = IBLTParameters.for_difference(40, 32, seed=11)
        alice = set(range(0, 60, 2))
        bob = set(range(0, 60, 3))
        results = []
        for backend in ("python", "numpy"):
            a = IBLT.from_items(params, alice, backend=backend)
            b = IBLT.from_items(params, bob, backend=backend)
            results.append(a.subtract(b).try_decode())
        assert results[0].success == results[1].success
        assert results[0].positive == results[1].positive
        assert results[0].negative == results[1].negative


@pytest.mark.parametrize("backend", BACKENDS)
class TestSerializationRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        inserted=st.sets(st.integers(min_value=0, max_value=2**20 - 1), max_size=12),
        deleted=st.sets(st.integers(min_value=0, max_value=2**20 - 1), max_size=12),
    )
    def test_round_trip_with_negative_counts(self, backend, inserted, deleted):
        params = make_params(cells=32, key_bits=20, seed=6)
        table = IBLT(params, backend=backend)
        table.insert_batch(inserted)
        table.delete_batch(deleted)
        encoded = table.serialize()
        for restore_backend in BACKENDS:
            restored = IBLT.deserialize(params, encoded, backend=restore_backend)
            assert restored == table
            assert restored.serialize() == encoded

    def test_deserialized_table_decodes(self, backend):
        params = make_params(cells=32, key_bits=20, seed=6)
        table = IBLT(params, backend=backend)
        table.delete_batch([77, 1234])
        restored = IBLT.deserialize(params, table.serialize(), backend=backend)
        result = restored.try_decode()
        assert result.success and result.negative == {77, 1234}

    @needs_numpy
    def test_same_items_same_serialization_across_backends(self, backend):
        params = make_params(cells=40, key_bits=24, seed=8)
        items = {5, 99, 12345, 2**24 - 1}
        table = IBLT.from_items(params, items, backend=backend)
        reference = IBLT.from_items(params, items, backend="python")
        assert table.serialize() == reference.serialize()
