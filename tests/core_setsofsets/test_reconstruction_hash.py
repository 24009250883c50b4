"""Bob's O(d) reconstruction hash against the whole-parent hash.

The cascade's bob hashes his own parent once and, for each T* rung he
tries, XORs in the checks of the children whose membership flips.  That
must equal :func:`parent_hash` of the reconstruction ``replace_children``
builds, for honest decodes and for forged ones: removed children he does not
hold, added children he already holds, and children named on both sides.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.setsofsets.encoding import parent_hash
from repro.core.setsofsets.types import SetOfSets
from repro.protocols.parties.setsofsets import reconstruction_hash

children = st.frozensets(st.integers(min_value=0, max_value=40), max_size=6)


@st.composite
def decodes(draw):
    """Bob's parent, then what a decode could claim: some of his children and
    some strangers removed, some of both added, some named on both sides."""
    bob = draw(st.lists(children, max_size=12, unique=True))
    strangers = draw(st.lists(children, max_size=6))
    pool = bob + strangers
    removed = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
    added = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
    added += draw(st.lists(children, max_size=4))
    if removed and draw(st.booleans()):
        added.append(removed[0])  # a child decoded with both signs
    return SetOfSets(bob), removed, added, draw(st.integers(min_value=0, max_value=2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(decodes())
def test_the_o_d_hash_is_the_reconstructions_parent_hash(case):
    bob, removed, added, seed = case
    expected = parent_hash(bob.replace_children(removed, added).children, seed)
    assert reconstruction_hash(parent_hash(bob.children, seed), bob, removed, added, seed) == (
        expected
    )


def test_an_honest_decode_hashes_to_alices_parent():
    alice = SetOfSets([{1, 2}, {3}, {4, 5, 6}, set()])
    bob = SetOfSets([{1, 2}, {3, 7}, {4, 5}, {9}])
    removed = [frozenset({3, 7}), frozenset({4, 5}), frozenset({9})]
    added = [frozenset({3}), frozenset({4, 5, 6}), frozenset()]
    assert reconstruction_hash(parent_hash(bob.children, 8), bob, removed, added, 8) == (
        parent_hash(alice.children, 8)
    )
