"""Tests for the Invertible Bloom Lookup Table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError, DecodeError, ParameterError
from repro.iblt import IBLT, IBLTParameters, cells_for_difference
from repro.iblt.sizing import capacity_of


def make_params(cells=64, key_bits=32, seed=1, **kwargs):
    return IBLTParameters(num_cells=cells, key_bits=key_bits, seed=seed, **kwargs)


class TestParameters:
    def test_size_bits(self):
        params = make_params(cells=10, key_bits=20)
        assert params.cell_bits == 4 + 20 + 16
        assert params.size_bits == 10 * params.cell_bits

    def test_for_difference_uses_sizing(self):
        params = IBLTParameters.for_difference(10, 32, seed=1)
        assert params.num_cells == cells_for_difference(10, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            IBLTParameters(num_cells=2, key_bits=8, seed=1, num_hashes=4)
        with pytest.raises(ParameterError):
            IBLTParameters(num_cells=16, key_bits=0, seed=1)
        with pytest.raises(ParameterError):
            IBLTParameters(num_cells=16, key_bits=8, seed=1, num_hashes=1)


class TestSizing:
    def test_monotone_in_difference(self):
        sizes = [cells_for_difference(d) for d in range(0, 200, 10)]
        assert sizes == sorted(sizes)

    def test_multiple_of_num_hashes(self):
        for k in (3, 4, 5):
            for d in (1, 7, 50):
                assert cells_for_difference(d, k) % k == 0

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            cells_for_difference(-1)
        with pytest.raises(ParameterError):
            cells_for_difference(5, num_hashes=7)

    def test_capacity_roughly_inverse(self):
        for d in (10, 50, 200):
            cells = cells_for_difference(d)
            assert capacity_of(cells) >= d * 0.5


class TestInsertDelete:
    def test_insert_then_delete_empties(self):
        table = IBLT(make_params())
        table.insert(42)
        table.delete(42)
        assert table.is_structurally_empty()

    def test_key_width_enforced(self):
        table = IBLT(make_params(key_bits=8))
        with pytest.raises(CapacityError):
            table.insert(256)

    def test_negative_key_rejected(self):
        with pytest.raises(ParameterError):
            IBLT(make_params()).insert(-1)

    def test_insert_all_delete_all(self):
        table = IBLT(make_params())
        table.insert_all(range(10))
        table.delete_all(range(10))
        assert table.is_structurally_empty()


class TestDecode:
    def test_simple_decode(self):
        table = IBLT(make_params())
        keys = {5, 99, 12345}
        table.insert_all(keys)
        positive, negative = table.decode()
        assert positive == keys and negative == set()

    def test_signed_decode(self):
        params = make_params()
        alice = IBLT.from_items(params, {1, 2, 3, 4})
        bob = IBLT.from_items(params, {3, 4, 5, 6})
        positive, negative = alice.subtract(bob).decode()
        assert positive == {1, 2} and negative == {5, 6}

    def test_decode_does_not_mutate(self):
        table = IBLT.from_items(make_params(), {7, 8})
        table.decode()
        positive, _ = table.decode()
        assert positive == {7, 8}

    def test_overloaded_table_fails_detectably(self):
        params = make_params(cells=8)
        table = IBLT.from_items(params, range(200))
        result = table.try_decode()
        assert not result.success

    def test_decode_error_raised(self):
        params = make_params(cells=8)
        table = IBLT.from_items(params, range(200))
        with pytest.raises(DecodeError):
            table.decode()

    def test_common_keys_cancel(self):
        params = make_params()
        shared = set(range(1000))
        alice = IBLT.from_items(params, shared | {5000})
        bob = IBLT.from_items(params, shared | {6000})
        positive, negative = alice.subtract(bob).decode()
        assert positive == {5000} and negative == {6000}

    def test_merge_is_additive(self):
        params = make_params()
        a = IBLT.from_items(params, {1})
        b = IBLT.from_items(params, {2})
        positive, _ = a.merge(b).decode()
        assert positive == {1, 2}

    def test_incompatible_tables_rejected(self):
        a = IBLT(make_params(seed=1))
        b = IBLT(make_params(seed=2))
        with pytest.raises(ParameterError):
            a.subtract(b)

    def test_decode_success_rate_at_recommended_size(self):
        # Theorem 2.1 / Corollary 2.2: tables sized by the library's rule
        # should decode essentially always at this scale.
        failures = 0
        for trial in range(30):
            d = 20
            params = IBLTParameters.for_difference(d, 32, seed=trial)
            rng = random.Random(trial)
            keys = set(rng.sample(range(1 << 30), d))
            table = IBLT.from_items(params, keys)
            result = table.try_decode()
            if not (result.success and result.positive == keys):
                failures += 1
        assert failures == 0

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=2**32 - 1), max_size=15),
        st.sets(st.integers(min_value=0, max_value=2**32 - 1), max_size=15),
    )
    def test_subtract_decode_property(self, alice_keys, bob_keys):
        # IBLT decode has an intrinsic (tiny) failure probability per seed:
        # e.g. for seed=99 the keys {2608, 44057} land on identical cell
        # sets, leaving no pure cell.  A logic bug breaks every seed, an
        # honest hash collision breaks at most one, so require success
        # under at least one of two independent seeds and full consistency
        # from any seed that does succeed.
        succeeded = 0
        for seed in (99, 1099):
            params = IBLTParameters.for_difference(30, 32, seed=seed)
            alice = IBLT.from_items(params, alice_keys)
            bob = IBLT.from_items(params, bob_keys)
            result = alice.subtract(bob).try_decode()
            if result.success:
                succeeded += 1
                assert result.positive == alice_keys - bob_keys
                assert result.negative == bob_keys - alice_keys
        assert succeeded >= 1


class TestSerialization:
    def test_round_trip(self):
        params = make_params(cells=24, key_bits=20)
        table = IBLT.from_items(params, {1, 2, 3, 500000})
        restored = IBLT.deserialize(params, table.serialize())
        assert restored == table

    def test_round_trip_with_negative_counts(self):
        params = make_params(cells=24, key_bits=20)
        table = IBLT(params)
        table.delete(77)
        restored = IBLT.deserialize(params, table.serialize())
        assert restored == table
        result = restored.try_decode()
        assert result.negative == {77}

    def test_serialized_width_bounded(self):
        params = make_params(cells=12, key_bits=16)
        table = IBLT.from_items(params, {3, 9})
        assert table.serialize().bit_length() <= params.size_bits

    def test_deserialize_rejects_oversized(self):
        params = make_params(cells=12, key_bits=16)
        with pytest.raises(ParameterError):
            IBLT.deserialize(params, 1 << params.size_bits)

    def test_equal_sets_have_equal_serializations(self):
        params = make_params()
        a = IBLT.from_items(params, {10, 20, 30})
        b = IBLT.from_items(params, {30, 10, 20})
        assert a.serialize() == b.serialize()

    def test_counts_wrap_round_trip(self):
        # Counts of 10 and -9 lie outside [-8, 8): they serialize as their
        # residues modulo 16, and the table they restore to equals this one.
        params = make_params(cells=8, count_bits=4)
        table = IBLT(params)
        for _ in range(10):
            table.insert(1)
        for _ in range(9):
            table.delete(2)
        restored = IBLT.deserialize(params, table.serialize())
        assert restored == table
        assert set(restored._store.snapshot()[0]) <= set(range(-8, 8))
