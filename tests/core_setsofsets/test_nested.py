"""Tests for sets of multisets / multisets of multisets (Section 3.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.setsofsets import (
    MultisetOfMultisets,
    decode_multiset_children,
    encode_multiset_children,
    reconcile_multisets_of_multisets,
)
from repro.core.setsofsets.nested import encoded_universe_size
from repro.errors import ParameterError


class TestMultisetOfMultisets:
    def test_counts_duplicates(self):
        parent = MultisetOfMultisets([[1, 2], [2, 1], [3]])
        assert parent.num_children == 3
        assert parent.num_distinct_children == 2
        assert parent.max_parent_multiplicity == 2

    def test_element_multiplicity(self):
        parent = MultisetOfMultisets([[1, 1, 1, 2]])
        assert parent.max_element_multiplicity == 3
        assert parent.max_child_size == 4
        assert parent.total_elements == 4

    def test_total_elements_counts_parent_multiplicity(self):
        parent = MultisetOfMultisets([[1, 2], [1, 2], [3]])
        assert parent.total_elements == 5

    def test_equality_order_independent(self):
        assert MultisetOfMultisets([[1, 2], [3]]) == MultisetOfMultisets([[3], [2, 1]])

    def test_from_counts_validation(self):
        with pytest.raises(ParameterError):
            MultisetOfMultisets.from_counts({(1, 2): 0})

    def test_invalid_elements(self):
        with pytest.raises(ParameterError):
            MultisetOfMultisets([[-1]])

    def test_empty_parent(self):
        parent = MultisetOfMultisets(())
        assert parent.num_children == 0
        assert parent.max_child_size == 0


class TestEncoding:
    def test_round_trip(self):
        parent = MultisetOfMultisets([[1, 1, 2], [3], [3], []])
        encoded = encode_multiset_children(parent, 16, 4, 4)
        decoded = decode_multiset_children(encoded, 16, 4)
        assert decoded == parent

    def test_bounds_validated(self):
        parent = MultisetOfMultisets([[1, 1, 1]])
        with pytest.raises(ParameterError):
            encode_multiset_children(parent, 16, 2, 4)
        parent = MultisetOfMultisets([[1], [1], [1]])
        with pytest.raises(ParameterError):
            encode_multiset_children(parent, 16, 2, 2)

    def test_universe_size_formula(self):
        assert encoded_universe_size(16, 4, 4) > 16 * 5

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=15), max_size=5),
            min_size=0,
            max_size=6,
        )
    )
    def test_round_trip_property(self, children):
        parent = MultisetOfMultisets(children)
        bound_elem = max(1, parent.max_element_multiplicity)
        bound_parent = max(1, parent.max_parent_multiplicity)
        encoded = encode_multiset_children(parent, 16, bound_elem, bound_parent)
        assert decode_multiset_children(encoded, 16, bound_elem) == parent


class TestReconciliation:
    def test_basic(self):
        alice = MultisetOfMultisets([[1, 1, 2], [3, 4], [3, 4], [9]])
        bob = MultisetOfMultisets([[1, 2], [3, 4], [3, 4], [9]])
        result = reconcile_multisets_of_multisets(alice, bob, 2, 16, seed=1)
        assert result.success and result.recovered == alice

    def test_parent_multiplicity_change(self):
        alice = MultisetOfMultisets([[5, 6], [5, 6], [7]])
        bob = MultisetOfMultisets([[5, 6], [7]])
        result = reconcile_multisets_of_multisets(alice, bob, 2, 16, seed=2)
        assert result.success and result.recovered == alice

    def test_identical(self):
        alice = MultisetOfMultisets([[1], [2, 2]])
        result = reconcile_multisets_of_multisets(alice, alice, 1, 8, seed=3)
        assert result.success and result.recovered == alice
