"""Wide explicit keys built in limbs against the per-row ints.

Past one word, :meth:`ExplicitChildScheme.encode_batch` packs each child
straight into the cell store's ``uint64`` limbs and returns the
:class:`~repro.iblt.backends.KeyBatch` every table takes.  Its limbs must be
:func:`~repro.iblt.backends._limbs_of` of the ints the per-row encoder
(``_encode_rows``) gives, its folds :func:`~repro.hashing.fingerprint64` of
them, and a table fed the batch must hold the cells the ints give it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.setsofsets import FlatSetOfSets, SetOfSets
from repro.core.setsofsets.encoding import ExplicitChildScheme
from repro.hashing import fingerprint64
from repro.iblt import IBLT, IBLTParameters
from repro.iblt.backends import KeyBatch, _limbs_of

SCHEMES = {
    # The cascade's T* at sos-cascading: 28 slots of 21 bits (588), slots
    # straddling limb boundaries; keys of 1-3 elements fit in a word.
    "packed-588": ExplicitChildScheme(universe_size=1 << 20, max_child_size=28),
    # u not a power of two: 10 element bits, 11-bit slots across two limbs.
    "packed-u1000": ExplicitChildScheme(universe_size=1000, max_child_size=9),
    # 64-bit elements: a 65-bit slot, its present bit in the next limb.
    "packed-u2^64": ExplicitChildScheme(universe_size=1 << 64, max_child_size=3),
    "bitmap-u100": ExplicitChildScheme(universe_size=100, max_child_size=40),
    "bitmap-u200": ExplicitChildScheme(universe_size=200, max_child_size=30),
}


def test_the_schemes_are_wide_and_cover_both_modes():
    assert all(scheme.key_bits > 64 for scheme in SCHEMES.values())
    assert [scheme.uses_bitmap for scheme in SCHEMES.values()] == [
        False, False, False, True, True,
    ]
    assert SCHEMES["packed-588"].key_bits == 588


@st.composite
def parents(draw, scheme):
    """Children of ``scheme``'s universe and size with the edges forced in:
    the empty child, children of 1-3 elements, a full child of ``h`` and
    the element ``u - 1``."""
    universe, limit = scheme.universe_size, scheme.max_child_size
    elements = st.integers(min_value=0, max_value=universe - 1)
    children = draw(st.lists(st.frozensets(elements, max_size=limit), max_size=25))
    small = draw(st.lists(st.frozensets(elements, min_size=1, max_size=3), max_size=4))
    full = draw(st.frozensets(elements, min_size=limit, max_size=limit))
    top = draw(st.frozensets(elements, max_size=limit - 1)) | {universe - 1}
    return children + small + [frozenset(), full, top]


@pytest.mark.parametrize("name", SCHEMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_limb_keys_equal_the_row_ints(name, data):
    scheme = SCHEMES[name]
    parent = SetOfSets(data.draw(parents(scheme)))
    flat = FlatSetOfSets.of(parent)
    ints = scheme._encode_rows(flat.rows)
    batch = scheme.encode_batch(flat)
    assert isinstance(batch, KeyBatch)
    assert np.array_equal(batch.limbs, _limbs_of(ints, -(-scheme.key_bits // 64)))
    assert batch.folds.tolist() == list(map(fingerprint64, ints))
    # A key that fits in a word (the empty child, a few small elements) is its fold.
    assert all(fold == key for fold, key in zip(batch.folds.tolist(), ints) if key >> 64 == 0)
    assert 0 in ints
    # Child sets given as sets take the same path as the batch.
    assert scheme.encode_many(parent.children) == scheme._encode_rows(
        [sorted(child) for child in parent.children]
    )
    # A table fed the batch holds what the ints give it, either sign.
    params = IBLTParameters.for_difference(8, scheme.key_bits, seed=11)
    from_batch, from_ints = IBLT(params), IBLT(params)
    from_batch.insert_batch(batch)
    from_ints.insert_batch(ints)
    assert from_batch == from_ints
    from_batch.delete_batch(batch)
    assert from_batch == IBLT(params)


def test_an_empty_batch_is_an_empty_key_batch():
    for scheme in SCHEMES.values():
        batch = scheme.encode_batch(FlatSetOfSets.of(SetOfSets([])))
        assert batch.limbs.shape == (0, -(-scheme.key_bits // 64))
        assert batch.folds.shape == (0,)
        assert scheme.encode_many([]) == []
