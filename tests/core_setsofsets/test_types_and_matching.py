"""Tests for the SetOfSets type, difference measures and child encodings."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.setsofsets import (
    SetOfSets,
    differing_children_count,
    minimum_matching_difference,
    relaxed_difference,
)
from repro.core.setsofsets.encoding import (
    ChildEncodingScheme,
    ExplicitChildScheme,
    child_set_hash,
    parent_hash,
)
from repro.errors import CapacityError, ParameterError
from repro.iblt import IBLTParameters


class TestSetOfSets:
    def test_parameters(self):
        parent = SetOfSets([{1, 2, 3}, {4}, set()])
        assert parent.num_children == 3
        assert parent.max_child_size == 3
        assert parent.total_elements == 4
        assert parent.universe_upper_bound == 5

    def test_duplicates_collapse(self):
        assert SetOfSets([{1, 2}, {2, 1}]).num_children == 1

    def test_empty_parent(self):
        parent = SetOfSets.empty()
        assert parent.num_children == 0
        assert parent.max_child_size == 0
        assert parent.total_elements == 0

    def test_membership_and_iteration(self):
        parent = SetOfSets([{3, 1}, {2}])
        assert {1, 3} in parent and {9} not in parent
        assert list(parent) == sorted(parent.children, key=sorted)

    def test_replace_children(self):
        parent = SetOfSets([{1}, {2}, {3}])
        updated = parent.replace_children([{2}], [{4, 5}])
        assert updated == SetOfSets([{1}, {3}, {4, 5}])

    def test_equality_and_hash(self):
        assert SetOfSets([{1}, {2}]) == SetOfSets([{2}, {1}])
        assert hash(SetOfSets([{1}])) == hash(SetOfSets([{1}]))

    def test_invalid_elements_rejected(self):
        with pytest.raises(ParameterError):
            SetOfSets([{-1}])
        with pytest.raises(ParameterError):
            SetOfSets([{"a"}])


class TestDifferenceMeasures:
    def test_identical_parents(self):
        parent = SetOfSets([{1, 2}, {3}])
        assert minimum_matching_difference(parent, parent) == 0
        assert relaxed_difference(parent, parent) == 0
        assert differing_children_count(parent, parent) == 0

    def test_single_element_change(self):
        alice = SetOfSets([{1, 2}, {3, 4}])
        bob = SetOfSets([{1, 2}, {3, 5}])
        assert minimum_matching_difference(alice, bob) == 2
        assert differing_children_count(alice, bob) == 2

    def test_extra_child(self):
        alice = SetOfSets([{1, 2}, {7, 8, 9}])
        bob = SetOfSets([{1, 2}])
        assert minimum_matching_difference(alice, bob) == 3

    def test_empty_parents(self):
        assert minimum_matching_difference(SetOfSets.empty(), SetOfSets.empty()) == 0

    def test_relaxed_at_most_twice_matching(self):
        alice = SetOfSets([{1, 2, 3}, {10, 11}])
        bob = SetOfSets([{1, 2, 4}, {10, 12}])
        assert relaxed_difference(alice, bob) <= 2 * minimum_matching_difference(alice, bob)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.sets(st.integers(0, 30), max_size=5), min_size=1, max_size=5),
        st.lists(st.sets(st.integers(0, 30), max_size=5), min_size=1, max_size=5),
    )
    def test_matching_is_symmetric_and_nonnegative(self, alice_children, bob_children):
        alice, bob = SetOfSets(alice_children), SetOfSets(bob_children)
        forward = minimum_matching_difference(alice, bob)
        backward = minimum_matching_difference(bob, alice)
        assert forward == backward >= 0


class TestChildHashing:
    def test_order_invariant(self):
        assert child_set_hash([3, 1, 2], 7, 48) == child_set_hash([1, 2, 3], 7, 48)

    def test_seed_sensitivity(self):
        assert child_set_hash([1, 2], 7, 48) != child_set_hash([1, 2], 8, 48)

    def test_parent_hash_detects_changes(self):
        alice = SetOfSets([{1, 2}, {3}])
        bob = SetOfSets([{1, 2}, {4}])
        assert parent_hash(alice, 1) != parent_hash(bob, 1)
        assert parent_hash(alice, 1) == parent_hash(SetOfSets([{3}, {1, 2}]), 1)
        # Order independent: the protocols hash their children unsorted.
        rng = random.Random(3)
        parent = SetOfSets(rng.sample(range(1000), rng.randint(0, 6)) for _ in range(40))
        children = [list(child) for child in parent.children]
        expected = parent_hash(parent, 1)
        for _ in range(5):
            rng.shuffle(children)
            shuffled = [rng.sample(child, len(child)) for child in children]
            assert parent_hash(shuffled, 1) == expected
            assert parent_hash(SetOfSets(shuffled).children, 1) == expected


class TestChildEncodingScheme:
    def scheme(self):
        params = IBLTParameters.for_difference(4, 16, seed=5, num_hashes=3)
        return ChildEncodingScheme(params, hash_bits=32, seed=5)

    def test_key_width(self):
        scheme = self.scheme()
        assert scheme.key_bits == scheme.child_params.size_bits + 32
        key = scheme.encode({1, 2, 3})
        assert key.bit_length() <= scheme.key_bits

    def test_encode_decode_round_trip(self):
        scheme = self.scheme()
        key = scheme.encode({10, 20, 30})
        table, child_hash = scheme.decode(key)
        assert child_hash == scheme.hash_of({10, 20, 30})
        positive, negative = table.decode()
        assert positive == {10, 20, 30} and negative == set()

    def test_decode_rejects_oversized_key(self):
        scheme = self.scheme()
        with pytest.raises(CapacityError):
            scheme.decode(1 << scheme.key_bits)

    def test_invalid_hash_bits(self):
        params = IBLTParameters.for_difference(4, 16, seed=5)
        with pytest.raises(ParameterError):
            ChildEncodingScheme(params, hash_bits=4, seed=5)


class TestExplicitChildScheme:
    def test_bitmap_mode_round_trip(self):
        scheme = ExplicitChildScheme(universe_size=32, max_child_size=20)
        assert scheme.uses_bitmap
        assert scheme.decode(scheme.encode({0, 5, 31})) == {0, 5, 31}

    def test_packed_mode_round_trip(self):
        scheme = ExplicitChildScheme(universe_size=1 << 20, max_child_size=4)
        assert not scheme.uses_bitmap
        assert scheme.decode(scheme.encode({7, 99, 100000})) == {7, 99, 100000}

    def test_empty_child(self):
        scheme = ExplicitChildScheme(universe_size=64, max_child_size=8)
        assert scheme.decode(scheme.encode(set())) == frozenset()

    def test_key_bits_is_min_of_encodings(self):
        small_universe = ExplicitChildScheme(32, 16)
        assert small_universe.key_bits == 32
        large_universe = ExplicitChildScheme(1 << 16, 4)
        assert large_universe.key_bits == 4 * 17

    def test_capacity_enforced(self):
        scheme = ExplicitChildScheme(universe_size=1 << 10, max_child_size=2)
        with pytest.raises(CapacityError):
            scheme.encode({1, 2, 3})
        with pytest.raises(CapacityError):
            scheme.encode({1 << 11})

    @given(st.sets(st.integers(min_value=0, max_value=255), max_size=10))
    def test_round_trip_property(self, child):
        for scheme in (ExplicitChildScheme(256, 10), ExplicitChildScheme(1 << 30, 10)):
            assert scheme.decode(scheme.encode(child)) == frozenset(child)

    SCHEMES = [
        pytest.param(ExplicitChildScheme(1 << 20, 4), id="packed"),
        pytest.param(ExplicitChildScheme(32, 20), id="bitmap"),
    ]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_negative_element_refused(self, scheme):
        with pytest.raises(ParameterError):
            scheme.encode([-1])
        with pytest.raises(ParameterError):
            scheme.encode_many([{1, 2}, {3, -5}])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bool_element_refused(self, scheme):
        with pytest.raises(ParameterError):
            scheme.encode([True])
        with pytest.raises(ParameterError):
            scheme.encode_many([{2}, {False, 3}])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_non_int_element_refused(self, scheme):
        for element in (1.0, 2.5, "3", None):
            with pytest.raises(ParameterError):
                scheme.encode([element])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_encode_many_is_encode_per_child(self, scheme):
        children = [set(), {0}, {1, 7, 19}, [19, 7, 1], (3, 3, 4), frozenset({31})]
        assert scheme.encode_many(children) == [scheme.encode(c) for c in children]
        assert scheme.encode_many([]) == []
        with pytest.raises(CapacityError):
            scheme.encode_many([{1}, set(range(25))])
        with pytest.raises(CapacityError):
            scheme.encode_many([{1}, {1 << 20}])
