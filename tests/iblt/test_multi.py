"""Tests for the batched IBLTArray construction (repro.iblt.multi).

Rows are checked against single tables built on each store: the library's
NumPy store and the reference store (``tests/reference_store.py``).
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_store
from reference_store import STORES, table_of
from repro.errors import CapacityError, ParameterError
from repro.iblt import IBLT, IBLTArray, IBLTParameters

PARAMS = IBLTParameters.for_difference(
    4, 24, seed=99, num_hashes=3, checksum_bits=24, count_bits=16
)


def random_children(count, seed=7, max_size=9, universe=1 << 20):
    rng = random.Random(seed)
    children = [
        [rng.randrange(universe) for _ in range(rng.randrange(max_size))]
        for _ in range(count)
    ]
    children.append([])  # empty child
    return children


def serialized(table):
    if table.backend == "numpy":
        return table.serialize()
    return reference_store.serialize(table)


@pytest.mark.parametrize("backend", STORES)
class TestMatchesPerTableConstruction:
    def test_tables_equal_from_items(self, backend):
        children = random_children(40)
        array = IBLTArray(PARAMS, children)
        for index, child in enumerate(children):
            assert array.table(index) == table_of(PARAMS, child, backend)

    def test_serialize_all_matches_per_table_serialize(self, backend):
        children = random_children(40, seed=13)
        array = IBLTArray(PARAMS, children)
        assert array.serialize_all() == [
            serialized(table_of(PARAMS, child, backend)) for child in children
        ]
        assert array.serialize_all() == [t.serialize() for t in array.tables()]

    def test_duplicate_keys_inside_a_child(self, backend):
        children = [[5, 5, 9], [9]]
        array = IBLTArray(PARAMS, children)
        for index, child in enumerate(children):
            assert array.table(index) == table_of(PARAMS, child, backend)

    def test_empty_array(self, backend):
        array = IBLTArray(PARAMS, [])
        assert len(array) == 0
        assert array.serialize_all() == []
        assert array.tables() == []

    def test_materialized_tables_are_independent(self, backend):
        array = IBLTArray(PARAMS, [[1, 2], [3]])
        first = array.table(0)
        first.insert(7)
        assert array.table(0) == table_of(PARAMS, [1, 2], backend)

    def test_rejects_invalid_keys(self, backend):
        # The array refuses what a single table on either store refuses.
        for child, error in (([-2], ParameterError), ([1 << 30], CapacityError)):
            with pytest.raises(error):
                IBLTArray(PARAMS, [[1], child])
            with pytest.raises(error):
                table_of(PARAMS, child, backend)


class TestBackendSelection:
    def test_numpy_backend_vectorizes(self):
        array = IBLTArray(PARAMS, [[1]], backend="numpy")
        assert array.vectorized and array.backend == "numpy"

    def test_python_backend_refused(self):
        with pytest.raises(ParameterError, match="unknown cell backend"):
            IBLTArray(PARAMS, [[1]], backend="python")

    def test_wide_keys_fall_back_and_agree(self):
        wide = IBLTParameters.for_difference(3, 100, seed=5, num_hashes=3)
        children = [[1 << 80, 3], [2]]
        array = IBLTArray(wide, children, backend="numpy")
        assert not array.vectorized and array.backend == "numpy"
        assert array.serialize_all() == [
            IBLT.from_items(wide, child).serialize() for child in children
        ]

    def test_cross_backend_bit_identity(self):
        children = random_children(30, seed=21)
        numpy_array = IBLTArray(PARAMS, children, backend="numpy")
        assert numpy_array.serialize_all() == [
            reference_store.serialize(table_of(PARAMS, child)) for child in children
        ]

    def test_rows_decode_like_single_tables(self):
        children = [[1, 2, 3], [10, 11]]
        array = IBLTArray(PARAMS, children, backend="numpy")
        for index, child in enumerate(children):
            positive, negative = array.table(index).decode()
            assert positive == set(child) and negative == set()


@pytest.mark.parametrize("backend", STORES)
class TestBatchedDecode:
    def test_decode_all_matches_per_row_try_decode(self, backend):
        children = random_children(25, seed=31, max_size=5)
        array = IBLTArray(PARAMS, children)
        assert array.decode_all() == [
            table_of(PARAMS, child, backend).try_decode() for child in children
        ]

    def test_decode_all_reports_undecodable_rows(self, backend):
        # Row 1 holds far more keys than the table can peel.
        children = [[1, 2], list(range(1000, 1200)), [7]]
        array = IBLTArray(PARAMS, children)
        results = array.decode_all()
        assert [r.success for r in results] == [True, False, True]
        assert results[0].positive == {1, 2}
        assert results[2].positive == {7}
        assert results == [table_of(PARAMS, child, backend).try_decode() for child in children]

    def test_decode_all_empty_array(self, backend):
        assert IBLTArray(PARAMS, []).decode_all() == []


class TestFromDifference:
    def test_matches_subtract_then_decode(self):
        alice = IBLT.from_items(PARAMS, [1, 2, 3, 99], backend="numpy")
        candidates = [
            IBLT.from_items(PARAMS, child, backend="numpy")
            for child in ([1, 2, 3], [1, 2, 3, 99], [500, 501], [])
        ]
        batched = IBLTArray.from_difference(alice, candidates)
        assert batched is not None
        assert batched.decode_all() == [
            alice.subtract(candidate).try_decode() for candidate in candidates
        ]

    def test_wide_keys_return_none(self):
        wide = IBLTParameters.for_difference(3, 100, seed=5, num_hashes=3)
        alice = IBLT.from_items(wide, [1 << 80])
        other = IBLT.from_items(wide, [2])
        assert IBLTArray.from_difference(alice, [other]) is None

    def test_parameter_mismatch_rejected(self):
        alice = IBLT.from_items(PARAMS, [1], backend="numpy")
        other_params = IBLTParameters.for_difference(
            6, 24, seed=98, num_hashes=3, checksum_bits=24, count_bits=16
        )
        other = IBLT.from_items(other_params, [2], backend="numpy")
        with pytest.raises(ParameterError):
            IBLTArray.from_difference(alice, [other])

    def test_empty_candidate_list(self):
        alice = IBLT.from_items(PARAMS, [1], backend="numpy")
        assert IBLTArray.from_difference(alice, []).decode_all() == []


# -- the packed serializer ----------------------------------------------------------


@st.composite
def arrays_to_serialize(draw):
    """``(params, children)``: any admissible field widths, any row width."""
    key_bits = draw(st.integers(1, 64))
    num_hashes = draw(st.integers(2, 4))
    params = IBLTParameters(
        num_cells=draw(st.integers(num_hashes, 3 * num_hashes + 1)),
        key_bits=key_bits,
        seed=draw(st.integers(0, 1 << 32)),
        num_hashes=num_hashes,
        checksum_bits=draw(st.integers(8, 64)),
        count_bits=draw(st.integers(4, 32)),
    )
    child = st.lists(st.integers(0, (1 << key_bits) - 1), max_size=6)
    return params, draw(st.lists(child, max_size=5))


@pytest.mark.parametrize("backend", STORES)
class TestPackedSerializer:
    @settings(max_examples=150, deadline=None)
    @given(arrays_to_serialize())
    # 3 cells of 4 + 1 + 8 = 13 bits: a 39-bit row, five bytes with one to spare.
    @example((IBLTParameters(3, 1, 0, 3, checksum_bits=8, count_bits=4), [[1], [], [0, 1]]))
    @example((PARAMS, []))
    @example((PARAMS, [[], [], []]))
    def test_rows_equal_the_scalar_serializer(self, backend, case):
        params, children = case
        array = IBLTArray(params, children)
        rows = array.serialize_all()
        assert rows == [array.table(i).serialize() for i in range(len(children))]
        assert rows == [serialized(table_of(params, child, backend)) for child in children]
        assert all(0 <= row < 1 << params.size_bits for row in rows)

    def test_counts_past_count_bits_wrap(self, backend):
        params = IBLTParameters(6, 20, 3, 3, checksum_bits=24, count_bits=4)
        children = [[1], [9] * 8]  # 8 is past [-8, 8)
        array = IBLTArray(params, children)
        rows = array.serialize_all()
        assert rows == [serialized(table_of(params, child, backend)) for child in children]
        assert IBLT.deserialize(params, rows[1]) == array.table(1)


class TestPackedDifferenceRows:
    """``from_difference`` arrays are where a tensor holds negative counts."""

    @staticmethod
    def rows_agree(array):
        assert array.serialize_all() == [
            array.table(i).serialize() for i in range(len(array))
        ]

    @settings(max_examples=100, deadline=None)
    @given(arrays_to_serialize(), st.data())
    def test_negative_counts_pack_in_twos_complement(self, case, data):
        params, children = case
        minuend = IBLT.from_items(
            params, data.draw(st.sampled_from(children)) if children else [], backend="numpy"
        )
        self.rows_agree(
            IBLTArray.from_difference(
                minuend, [IBLT.from_items(params, child, backend="numpy") for child in children]
            )
        )

    @pytest.mark.parametrize("count_bits", [4, 64])
    def test_count_widths_at_both_ends(self, count_bits):
        # Below a byte, and a whole word.
        params = IBLTParameters(6, 20, 3, 3, checksum_bits=24, count_bits=count_bits)
        minuend = IBLT.from_items(params, [4, 5], backend="numpy")
        plenty = IBLT.from_items(params, [9] * 6 + [4], backend="numpy")
        array = IBLTArray.from_difference(minuend, [plenty, minuend, IBLT(params)])
        assert int(array._counts.min()) <= -6 and int(array._counts.max()) >= 1
        self.rows_agree(array)

    def test_a_count_below_the_range_wraps(self):
        params = IBLTParameters(6, 20, 3, 3, checksum_bits=24, count_bits=4)
        nine = IBLT.from_items(params, [9] * 5, backend="numpy")
        nine.insert_batch([9] * 4)
        array = IBLTArray.from_difference(IBLT(params, backend="numpy"), [nine])
        assert int(array._counts.min()) == -9  # -9 is past [-8, 8)
        self.rows_agree(array)
        assert array.table(0).serialize() == IBLT.from_items(
            params, [9] * 7, backend="numpy"
        ).serialize()  # -9 and 7 are one residue modulo 16
