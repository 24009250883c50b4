"""Tests for the L0 set-difference estimator."""

import random

import pytest

from repro.comm.bits import BitReader, BitWriter
from repro.comm.sizing import bits_for_value
from repro.errors import ParameterError
from repro.estimator import L0Estimator
from repro.protocols.parties.setsofsets import SetsOfSetsContext, _multiround_child_estimator

#: The two shapes the protocols build: the default sketch of every
#: unknown-``d`` prelude, and multiround's per-child sketch (32 buckets, here
#: for children of up to 1024 elements).
FACTORIES = [
    L0Estimator,
    _multiround_child_estimator(SetsOfSetsContext(1 << 20, 0, max_child_size=1024))[0],
]
FACTORY_IDS = ["l0", "l0-child"]


def build_pair(factory, true_difference, shared=2000, seed=0):
    """Two estimators over mostly-shared sets with a planted difference."""
    rng = random.Random(seed)
    shared_elements = rng.sample(range(1 << 40), shared)
    alice_only = rng.sample(range(1 << 40, 2 << 40), true_difference // 2)
    bob_only = rng.sample(range(2 << 40, 3 << 40), true_difference - true_difference // 2)
    alice_est = factory(777)
    bob_est = factory(777)
    alice_est.update_all(shared_elements + alice_only, 1)
    bob_est.update_all(shared_elements + bob_only, 2)
    return alice_est.merge(bob_est)


@pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
class TestEstimatorAccuracy:
    def test_zero_difference(self, factory):
        merged = build_pair(factory, 0)
        assert merged.query() <= 4

    def test_small_difference_exactish(self, factory):
        merged = build_pair(factory, 8, seed=1)
        assert 1 <= merged.query() <= 40

    @pytest.mark.parametrize("true_d", [16, 64, 256, 1024])
    def test_constant_factor_accuracy(self, factory, true_d):
        estimate = build_pair(factory, true_d, seed=true_d).query()
        assert true_d / 8 <= estimate <= true_d * 8

    def test_monotone_trend(self, factory):
        small = build_pair(factory, 16, seed=3).query()
        large = build_pair(factory, 1024, seed=3).query()
        assert large > small


@pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
class TestEstimatorInterface:
    def test_invalid_side_rejected(self, factory):
        with pytest.raises(ParameterError):
            factory(1).update(5, 3)

    def test_merge_requires_same_seed(self, factory):
        with pytest.raises(ParameterError):
            factory(1).merge(factory(2))

    def test_size_bits_positive(self, factory):
        assert factory(1).size_bits > 0

    def test_identical_sets_cancel(self, factory):
        estimator = factory(5)
        estimator.update_all(range(100), 1)
        estimator.update_all(range(100), 2)
        assert estimator.query() <= 4


def largest_l0_frame(num_levels, buckets):
    """Every level sent and dense: the header, then a flag and 2 bits per counter."""
    return 2 * num_levels * buckets + num_levels + bits_for_value(num_levels)


#: The strata estimator the L0 sketch replaces (Theorem 3.1): 32 strata of 40
#: cells, each a 16-bit count, a 64-bit key sum and a 24-bit checksum.
STRATA_BITS = 32 * 40 * (16 + 64 + 24)


class TestSizeComparison:
    def test_l0_is_smaller_than_strata(self):
        # The paper's Theorem 3.1 improvement: the L0 sketch drops the
        # O(log u) factor that the strata estimator pays per stratum cell.
        # Even the largest L0 frame is; the frame one side sends is smaller.
        one_sided = L0Estimator(1)
        one_sided.update_all(random.Random(1).sample(range(1 << 40), 4096), 1)
        assert one_sided.size_bits < largest_l0_frame(32, 128) < STRATA_BITS / 10


class TestL0Parameters:
    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            L0Estimator(1, num_levels=0)
        with pytest.raises(ParameterError):
            L0Estimator(1, buckets_per_level=2)
        with pytest.raises(ParameterError):
            L0Estimator(1, reliable_fraction=1.5)

    def test_size_formula(self):
        # Empty: only the level-count header.  Every counter non-zero: every
        # level sent, each dense -- the largest frame of the shape.
        estimator = L0Estimator(1, num_levels=10, buckets_per_level=64)
        assert estimator.size_bits == bits_for_value(10)
        writer = BitWriter()
        writer.write(10, bits_for_value(10))
        for _ in range(10):
            writer.write(int("01" * 64, 2), 1 + 2 * 64)
        estimator.read_wire(BitReader(writer.getvalue()))
        assert estimator.size_bits == writer.bit_length == largest_l0_frame(10, 64)
