"""Folding an IBLT: the fold ladder's exact identity, on the cell store and
on the reference store.

Hash ``i`` maps a key to ``start_i + mix64(fp ^ seed_i) % size_i`` with seeds
that do not depend on the cell count, and (x mod 2r) mod r = x mod r.  So a
table folded to any divisor of its region size is the table of the same keys
at that size, and a table of twice the size is its fold's lower half
(``fold - upper``) joined with its upper half.  Counts add (they are residues
modulo ``2**count_bits``, so wrapped counts fold too); keys and checksums XOR.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_store
from reference_store import STORES, table_of
from repro.errors import ParameterError
from repro.iblt import IBLT, IBLTParameters
from repro.iblt.table import MIN_RUNG_REGION, fold_ladder, foldable, resized


def serialized(table):
    if table.backend == "numpy":
        return table.serialize()
    return reference_store.serialize(table)


def sent(table):
    """The table as a peer receives it: through the wire, count residues only."""
    if table.backend == "numpy":
        return IBLT.deserialize(table.params, table.serialize())
    return reference_store.deserialize(table.params, reference_store.serialize(table))


def built(params, inserted, deleted, backend):
    table = table_of(params, inserted, backend)
    table.delete_batch(deleted)
    return table


@st.composite
def folds(draw):
    """A top table's parameters, a divisor fold size, and the keys: enough
    of them to wrap 4-bit counts, deletes included, keys of one or two limbs."""
    regions = draw(st.sampled_from([3, 4]))
    target = draw(st.integers(min_value=1, max_value=12))
    factor = draw(st.sampled_from([1, 2, 3, 4]))
    key_bits = draw(st.sampled_from([20, 64, 128]))
    top = IBLTParameters(
        num_cells=regions * target * factor * 2,
        key_bits=key_bits,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        num_hashes=regions,
    )
    keys = st.integers(min_value=0, max_value=2**key_bits - 1)
    inserted = draw(st.lists(keys, max_size=300, unique=True))
    deleted = draw(st.lists(keys, max_size=40, unique=True))
    return top, regions * target, inserted, deleted


@pytest.mark.parametrize("backend", STORES)
@settings(max_examples=60, deadline=None)
@given(case=folds())
def test_a_fold_is_the_table_of_the_same_keys(backend, case):
    top, num_cells, inserted, deleted = case
    table = built(top, inserted, deleted, backend)
    reference = built(resized(top, num_cells), inserted, deleted, backend)
    for source in (table, sent(table)):
        folded = source.fold(num_cells)
        assert folded.params == reference.params
        assert folded == reference
        assert serialized(folded) == serialized(reference)


@pytest.mark.parametrize("backend", STORES)
@settings(max_examples=60, deadline=None)
@given(case=folds())
def test_fold_minus_upper_half_rebuilds_the_double(backend, case):
    top, num_cells, inserted, deleted = case
    double = built(resized(top, 2 * num_cells), inserted, deleted, backend)
    upper = double.upper_half()
    assert upper.params == resized(top, num_cells)
    fold = built(resized(top, num_cells), inserted, deleted, backend)
    # Bob rebuilds from what crossed the wire: the sent fold and upper half.
    for lower, half in ((fold, upper), (sent(fold), sent(upper))):
        rebuilt = lower.unfold(half)
        assert rebuilt == double
        assert serialized(rebuilt) == serialized(double)


@settings(max_examples=30, deadline=None)
@given(case=folds())
def test_both_stores_fold_alike(case):
    top, num_cells, inserted, deleted = case
    reference, numpy = (built(top, inserted, deleted, backend) for backend in STORES)
    assert reference.fold(num_cells) == numpy.fold(num_cells)
    assert reference.upper_half() == numpy.upper_half()
    half = top.num_cells // 2
    assert reference.fold(half).unfold(reference.upper_half()) == numpy
    assert numpy.fold(half).unfold(numpy.upper_half()) == reference


class TestFoldLadder:
    def params(self, num_cells, num_hashes=4):
        return IBLTParameters(num_cells=num_cells, key_bits=64, seed=1, num_hashes=num_hashes)

    def cells(self, top):
        return [params.num_cells for params in fold_ladder(top)]

    def test_the_rungs_halve_down_to_the_smallest_region(self):
        assert MIN_RUNG_REGION == 8
        assert self.cells(self.params(128)) == [32, 64, 128]
        assert self.cells(self.params(96, 3)) == [24, 48, 96]
        assert self.cells(self.params(64)) == [32, 64]

    def test_a_top_whose_regions_do_not_halve_is_one_rung(self):
        assert self.cells(self.params(52)) == [52]  # regions of 13
        assert self.cells(self.params(32)) == [32]  # regions of 8: the floor
        assert self.cells(self.params(10)) == [10]  # unequal regions

    def test_foldable_rounds_a_top_up_to_a_full_ladder(self):
        # 96 = 4 x 24 = 4 x 12 x 2 folds already; 4 x 17 rounds to 4 x 9 x 2;
        # 4 x 100 to 4 x 13 x 8.  Regions under 16 cells stay as they are.
        for cells, rounded in ((96, 96), (68, 72), (400, 416), (124, 128), (60, 60), (52, 52)):
            assert foldable(self.params(cells)).num_cells == rounded
        for cells in range(64, 4096, 4):
            top = foldable(self.params(cells))
            assert cells <= top.num_cells <= cells * 9 / 8
            rungs = fold_ladder(top)
            assert 8 <= rungs[0].num_cells // 4 < 16
            assert rungs[-1] == top

    def test_every_rung_shares_the_top_but_for_its_size(self):
        top = IBLTParameters.for_difference(64, 64, seed=5)
        for params in fold_ladder(top):
            assert resized(params, top.num_cells) == top


@pytest.mark.parametrize("backend", STORES)
class TestRefusals:
    def table(self, backend, num_cells=52):
        return table_of(
            IBLTParameters(num_cells=num_cells, key_bits=32, seed=3), range(20), backend
        )

    def test_a_fold_needs_a_divisor_of_the_regions(self, backend):
        table = self.table(backend)
        for num_cells in (0, 8, 26, 104):
            with pytest.raises(ParameterError):
                table.fold(num_cells)
        assert table.fold(52) == table

    def test_an_upper_half_needs_even_regions(self, backend):
        with pytest.raises(ParameterError):
            self.table(backend).upper_half()

    def test_an_unfold_needs_matching_halves(self, backend):
        table = self.table(backend, 64)
        with pytest.raises(ParameterError):
            table.fold(32).unfold(table.fold(16))
