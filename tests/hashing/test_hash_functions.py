"""Tests for family and checksum hashing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ParameterError
from repro.hashing import Checksum, HashFamily


class TestHashFamily:
    def test_cells_distinct(self):
        family = HashFamily(seed=1, num_hashes=4, num_cells=40)
        for key in range(200):
            cells = family.cells_for(key)
            assert len(set(cells)) == 4

    def test_cells_within_range(self):
        family = HashFamily(seed=1, num_hashes=3, num_cells=30)
        for key in range(200):
            assert all(0 <= cell < 30 for cell in family.cells_for(key))

    def test_partition_regions(self):
        family = HashFamily(seed=1, num_hashes=3, num_cells=30)
        for key in range(100):
            regions = [family.region_of(cell) for cell in family.cells_for(key)]
            assert regions == [0, 1, 2]

    def test_deterministic(self):
        a = HashFamily(2, 4, 44)
        b = HashFamily(2, 4, 44)
        assert a.cells_for(99) == b.cells_for(99)

    def test_uneven_partition(self):
        family = HashFamily(seed=5, num_hashes=4, num_cells=10)
        seen = set()
        for key in range(500):
            seen.update(family.cells_for(key))
        assert seen == set(range(10))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            HashFamily(1, 0, 10)
        with pytest.raises(ParameterError):
            HashFamily(1, 5, 3)

    def test_region_of_out_of_range(self):
        family = HashFamily(1, 3, 9)
        with pytest.raises(ParameterError):
            family.region_of(9)

    @pytest.mark.parametrize("num_cells", [4 * 1024, 4003, 10])
    def test_array_cells_equal_modulo_on_random_words(self, num_cells):
        """Scalar floor division per region gives the residues ``%`` gives,
        word for word, for equal and unequal region sizes."""
        family = HashFamily(seed=7, num_hashes=4, num_cells=num_cells)
        rng = np.random.default_rng(num_cells)
        mixed = rng.integers(0, 2**64, size=(4, 5000), dtype=np.uint64)
        mixed[:, :3] = np.array([0, 2**64 - 1, 2**63], dtype=np.uint64)
        starts = np.array([[start] for start, _ in family._region_bounds])
        sizes = np.array([[size] for _, size in family._region_bounds], dtype=np.uint64)
        expected = (mixed % sizes).astype(np.int64) + starts
        assert np.array_equal(family._cells_of(mixed.copy()), expected)
        keys = mixed[0, :200].copy()
        assert family.cells_for_array(keys).T.tolist() == [
            family.cells_for(int(key)) for key in keys
        ]


class TestChecksum:
    def test_deterministic(self):
        assert Checksum(1).of_key(42) == Checksum(1).of_key(42)

    def test_width(self):
        checksum = Checksum(1, bits=16)
        assert all(checksum.of_key(x) < 2**16 for x in range(300))

    def test_of_set_order_independent(self):
        checksum = Checksum(4)
        assert checksum.of_set([1, 2, 3]) == checksum.of_set([3, 2, 1])

    def test_different_keys_differ(self):
        checksum = Checksum(4)
        outputs = {checksum.of_key(x) for x in range(1000)}
        assert len(outputs) > 990
