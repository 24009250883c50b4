"""The flat child batch against the per-child encoders and SetOfSets.

The cascade's encoders read one :class:`~repro.iblt.multi.FlatChildren` per
party: explicit T* keys (:meth:`ExplicitChildScheme.encode_batch`, in limbs
past one word), child hashes and the parent hash each come from array passes
over it.  Here every
batch result is checked against the scalar calls and against reference
implementations written out below one child at a time (the encoders as they
were before they read a batch), and :class:`FlatSetOfSets` against the
:class:`SetOfSets` it flattens: canonical order, duplicate rows, membership
and ``replace_children``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.setsofsets import FlatSetOfSets, SetOfSets
from repro.core.setsofsets.encoding import (
    ExplicitChildScheme,
    child_set_hash,
    child_set_hash_many,
    parent_hash,
)
from repro.errors import CapacityError, ParameterError
from repro.graphs.separation import signature_batch, signature_matrix, signature_order
from repro.hashing import Checksum, derive_seed, fingerprint64
from repro.hashing.mix import MASK64, mix64
from repro.iblt.backends import KeyBatch, _limbs_of
from repro.iblt.multi import FlatChildren
from repro.protocols.parties.setsofsets import reconstruction_hash

# --- references: one child at a time, no batch ----------------------------------------


def reference_key(scheme, child):
    ordered = sorted(child)
    if scheme.uses_bitmap:
        return sum(1 << element for element in ordered)
    key = 0
    for element in ordered:
        key = (key << scheme.slot_bits) | (1 << scheme.element_bits) | element
    return key


def reference_child_hash(child, seed, bits):
    checksum = Checksum(derive_seed(seed, "child-set-hash"), 64)
    fold = 0
    for element in child:
        fold ^= checksum.of_key(element)
    return mix64((fold + len(child)) & MASK64) & ((1 << bits) - 1)


def reference_parent_hash(children, seed, bits=64):
    checksum = Checksum(derive_seed(seed, "parent-hash"), bits)
    folded = 0
    for child in children:
        folded ^= checksum.of_key(reference_child_hash(child, seed, bits))
    return folded


# --- the schemes: both modes, one word and wider ---------------------------------------

SCHEMES = {
    "bitmap-word": ExplicitChildScheme(universe_size=40, max_child_size=12),
    "bitmap-wide": ExplicitChildScheme(universe_size=100, max_child_size=40),
    "packed-word": ExplicitChildScheme(universe_size=1 << 20, max_child_size=3),
    "packed-wide": ExplicitChildScheme(universe_size=1 << 20, max_child_size=5),
}


def test_the_schemes_cover_both_modes_at_both_widths():
    assert [(s.uses_bitmap, s.key_bits <= 64) for s in SCHEMES.values()] == [
        (True, True), (True, False), (False, True), (False, False),
    ]


@st.composite
def parents(draw, scheme):
    """Children of ``scheme``'s universe and size, with the edges forced in:
    the empty child, a child of exactly ``h`` elements and the element u - 1."""
    universe, limit = scheme.universe_size, scheme.max_child_size
    elements = st.integers(min_value=0, max_value=universe - 1)
    children = draw(st.lists(st.frozensets(elements, max_size=limit), max_size=40))
    full = draw(st.frozensets(elements, min_size=limit, max_size=limit))
    return children + [frozenset(), full, frozenset({universe - 1})]


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_keys_equal_the_scalar_and_reference_keys(name, data):
    scheme = SCHEMES[name]
    parent = SetOfSets(data.draw(parents(scheme)))
    children = parent.sorted_children()
    expected = [reference_key(scheme, child) for child in children]
    keys = scheme.encode_batch(FlatSetOfSets.of(parent))
    if scheme.key_bits > 64:  # the cell store's limbs and folds, no ints
        assert isinstance(keys, KeyBatch)
        assert np.array_equal(keys.limbs, _limbs_of(expected, -(-scheme.key_bits // 64)))
        assert keys.folds.tolist() == list(map(fingerprint64, expected))
    else:
        assert keys.tolist() == expected
    assert scheme.encode_many(children) == expected
    assert [scheme.encode(child) for child in children] == expected
    assert list(map(scheme.decode, expected)) == children


@settings(max_examples=80, deadline=None)
@given(
    children=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=2**64 - 1), max_size=12), max_size=40
    ),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    bits=st.sampled_from([1, 8, 48, 64]),
)
@example(children=[frozenset()] * 3, seed=0, bits=64)
@example(children=[frozenset({2**64 - 1, 0})] * 20, seed=1, bits=48)
def test_batch_hashes_equal_the_scalar_and_reference_hashes(children, seed, bits):
    # Up to 16 children the finishing mix is scalar, past it an array pass.
    batch = FlatChildren(children)
    expected = [reference_child_hash(child, seed, bits) for child in children]
    assert child_set_hash_many(batch, seed, bits) == expected
    assert child_set_hash_many(children, seed, bits) == expected
    assert [child_set_hash(child, seed, bits) for child in children] == expected
    parent = SetOfSets(children).children
    assert parent_hash(FlatSetOfSets.of(SetOfSets(children)), seed, bits) == (
        reference_parent_hash(parent, seed, bits)
    )
    assert parent_hash(parent, seed, bits) == reference_parent_hash(parent, seed, bits)


def test_hashes_of_elements_past_64_bits_take_the_row_path():
    children = [frozenset({2**70, 3}), frozenset(), frozenset({5})]
    batch = FlatChildren(children)
    assert batch.elements is None
    assert child_set_hash_many(batch, 9, 48) == [
        reference_child_hash(child, 9, 48) for child in children
    ]
    assert parent_hash(batch, 9) == reference_parent_hash(children, 9)


# --- errors: the batch refuses what the scalar path refuses ----------------------------


@pytest.mark.parametrize("name", SCHEMES)
def test_an_oversized_child_is_a_capacity_error_either_way(name):
    scheme = SCHEMES[name]
    oversized = frozenset(range(scheme.max_child_size + 1))
    with pytest.raises(CapacityError):
        scheme.encode(oversized)
    with pytest.raises(CapacityError):
        scheme.encode_batch(FlatSetOfSets.of(SetOfSets([{1}, oversized])))


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("outside", [0, 1, 2**64, 2**70], ids=["u", "u+1", "2^64", "2^70"])
def test_an_element_outside_the_universe_is_a_capacity_error_either_way(name, outside):
    scheme = SCHEMES[name]
    element = max(outside, scheme.universe_size + outside)
    with pytest.raises(CapacityError):
        scheme.encode({element})
    with pytest.raises(CapacityError):
        scheme.encode_batch(FlatSetOfSets.of(SetOfSets([{1}, {element}])))


@pytest.mark.parametrize("element", [1.0, 2.5, "3", None, -1])
def test_a_non_int_or_negative_element_is_a_parameter_error_either_way(element):
    for scheme in SCHEMES.values():
        with pytest.raises(ParameterError):
            scheme.encode([element])
        with pytest.raises(ParameterError):
            scheme.encode_many([{2}, [element]])
    with pytest.raises(ParameterError):
        FlatChildren([[1], [element]])
    with pytest.raises(ParameterError):
        child_set_hash([element], 5, 48)
    with pytest.raises(ParameterError):
        child_set_hash_many([[1], [element]], 5, 48)
    with pytest.raises(ParameterError):
        parent_hash([[1], [element]], 5)


# --- FlatSetOfSets against SetOfSets ---------------------------------------------------

small_children = st.frozensets(st.integers(min_value=0, max_value=12), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_children, max_size=30))
def test_the_batch_is_the_canonical_order_with_duplicates_collapsed(children):
    parent = SetOfSets(children)
    expected = [sorted(child) for child in parent.sorted_children()]
    batch = FlatSetOfSets.of(parent)
    assert batch.rows == expected
    assert batch.num_children == parent.num_children
    assert batch.total_elements == parent.total_elements
    assert batch.children == parent.children
    # The signature matrix's batch collapses equal rows the same way.
    matrix = signature_matrix(children, 13)
    matrix_batch = signature_batch(matrix, signature_order(matrix))
    assert FlatSetOfSets.from_arrays(matrix_batch.elements, matrix_batch.sizes).rows == expected
    assert np.array_equal(matrix_batch.elements, batch.elements)


@st.composite
def decodes(draw):
    """A parent, then what a decode could claim about it (as in the
    reconstruction-hash test): some of its children and some strangers."""
    bob = draw(st.lists(small_children, max_size=14, unique=True))
    strangers = draw(st.lists(small_children, max_size=6))
    pool = bob + strangers
    removed = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
    added = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
    added += draw(st.lists(small_children, max_size=4))
    if removed and draw(st.booleans()):
        added.append(removed[0])  # a child named on both sides
    return SetOfSets(bob), pool, removed, added


@settings(max_examples=300, deadline=None)
@given(decodes(), st.integers(min_value=0, max_value=2**64 - 1))
def test_membership_and_replacement_match_set_of_sets(case, seed):
    bob, pool, removed, added = case
    batch = FlatSetOfSets.of(bob)
    for child in pool:
        assert (child in batch) == (child in bob)
        index = batch.index(child)
        assert index is None or batch.child(index) == child
    replaced = batch.replace_children(removed, added)
    assert isinstance(replaced, FlatSetOfSets)
    assert replaced.rows == FlatSetOfSets.of(bob.replace_children(removed, added)).rows
    assert reconstruction_hash(parent_hash(batch, seed), batch, removed, added, seed) == (
        reconstruction_hash(parent_hash(bob.children, seed), bob, removed, added, seed)
    )


def test_replacement_past_64_bits_takes_the_row_path():
    bob = SetOfSets([{1, 2}, {2**70}, {5}])
    batch = FlatSetOfSets.of(bob)
    assert batch.elements is None
    replaced = batch.replace_children([{5}], [{2**65, 3}, {1, 2}])
    assert replaced.rows == FlatSetOfSets.of(bob.replace_children([{5}], [{2**65, 3}])).rows
    narrow = FlatSetOfSets.of(SetOfSets([{1}]))
    assert narrow.replace_children([], [{2**66}]).rows == [[1], [2**66]]


def test_added_children_are_checked_before_they_are_sorted():
    batch = FlatSetOfSets.of(SetOfSets([{1}]))
    for bad in ({"a", 2}, {-4}, {1.5}):
        with pytest.raises(ParameterError):
            batch.replace_children([], [bad])
