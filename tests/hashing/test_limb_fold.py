"""The limb fold, :func:`repro.hashing.mix.fingerprint64_rows`, against the
scalar reference :func:`repro.hashing.fingerprint64`, row by row.

A wide key reaches the cell store as ``uint64`` limbs, most significant
first, and is folded from the limbs' bytes without becoming an int.  Every
row must fold to exactly what the scalar fold gives its int: a row below
``2**64`` to itself whatever the table's width, any other row to the BLAKE2b
digest of its bytes with the leading zero bytes stripped.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import fingerprint64
from repro.hashing.mix import fingerprint64_rows
from repro.iblt.backends import NumpyCellStore, _folds_of, _limbs_of


@st.composite
def wide_tables(draw):
    """A key width of 65-700 bits and rows of that width, the edges mixed in:
    zero, rows below ``2**64``, exactly ``2**64`` and all ones."""
    width = draw(st.integers(min_value=65, max_value=700))
    row = st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.sampled_from([0, 2**64 - 1, 2**64, 2**width - 1]),
        st.integers(min_value=0, max_value=2**width - 1),
        st.integers(min_value=0, max_value=width - 1).map(lambda bit: 1 << bit),
    )
    return width, draw(st.lists(row, max_size=30))


@settings(max_examples=200, deadline=None)
@given(wide_tables())
@example((65, [0, 1, 2**64 - 1, 2**64, 2**65 - 1]))
@example((700, [2**700 - 1, 2**64, 0, 7]))
@example((128, []))
def test_the_limb_fold_is_fingerprint64_row_by_row(table):
    width, keys = table
    num_limbs = -(-width // 64)
    limbs = _limbs_of(keys, num_limbs)
    expected = [fingerprint64(key) for key in keys]
    folds = fingerprint64_rows(limbs)
    assert folds.dtype == np.uint64 and folds.tolist() == expected
    # The peel's fold and the int route into a table read the same values.
    assert _folds_of(limbs).tolist() == expected
    batch = NumpyCellStore(4, 4, width).coerce_keys(keys)
    assert np.array_equal(batch.limbs, limbs) and batch.folds.tolist() == expected


def test_a_row_below_a_word_is_its_own_fold_and_the_limbs_are_not_changed():
    limbs = _limbs_of([5, 2**64 - 1, 2**64 + 5, 0], 3)
    before = limbs.copy()
    assert fingerprint64_rows(limbs).tolist()[:2] == [5, 2**64 - 1]
    assert fingerprint64_rows(limbs).tolist()[3] == 0
    assert np.array_equal(limbs, before)
    # A strided view (the peel passes row subsets of its key array) folds alike.
    assert fingerprint64_rows(limbs[::2]).tolist() == [5, fingerprint64(2**64 + 5)]
