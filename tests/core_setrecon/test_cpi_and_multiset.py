"""Tests for characteristic-polynomial reconciliation and multiset support."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import reconcile
from repro.core.setrecon import (
    decode_multiset,
    encode_multiset,
    multiset_symmetric_difference,
    reconcile_multiset_known_d,
)
from repro.core.setrecon.cpi import cpi_decode, cpi_encode
from repro.errors import ParameterError

UNIVERSE = 1 << 16

cpi = functools.partial(reconcile, protocol="cpi", universe_size=UNIVERSE)


def make_instance(size, difference, seed):
    rng = random.Random(seed)
    alice = set(rng.sample(range(UNIVERSE), size))
    bob = set(alice)
    for element in rng.sample(sorted(alice), difference // 2):
        bob.discard(element)
    while len(alice ^ bob) < difference:
        bob.add(rng.randrange(UNIVERSE))
    return alice, bob


class TestCPIProtocol:
    def test_basic(self):
        alice, bob = make_instance(200, 10, seed=1)
        result = cpi(alice, bob, difference_bound=12, seed=2)
        assert result.success and result.recovered == alice

    def test_exact_bound(self):
        alice, bob = make_instance(150, 9, seed=3)
        result = cpi(alice, bob, difference_bound=9, seed=4)
        assert result.success and result.recovered == alice

    def test_identical_sets(self):
        alice, _ = make_instance(80, 0, seed=5)
        result = cpi(alice, set(alice), difference_bound=3, seed=6)
        assert result.success and result.recovered == alice

    def test_asymmetric_sizes(self):
        alice = set(range(100))
        bob = set(range(90))
        result = cpi(alice, bob, difference_bound=10, seed=7)
        assert result.success and result.recovered == alice

    def test_bob_superset(self):
        alice = set(range(50))
        bob = set(range(60))
        result = cpi(alice, bob, difference_bound=10, seed=8)
        assert result.success and result.recovered == alice

    def test_empty_sides(self):
        assert cpi(set(), {1, 2}, difference_bound=3, seed=9).recovered == set()
        assert cpi({1, 2}, set(), difference_bound=3, seed=10).recovered == {1, 2}

    def test_under_bound_fails_detectably(self):
        alice, bob = make_instance(100, 30, seed=11)
        result = cpi(alice, bob, difference_bound=5, seed=12)
        assert not result.success

    def test_deterministic_success_across_seeds(self):
        # Theorem 2.3: succeeds with probability 1 whenever the bound holds.
        alice, bob = make_instance(120, 14, seed=13)
        assert all(
            cpi(alice, bob, difference_bound=16, seed=s).success for s in range(10)
        )

    def test_communication_less_than_iblt(self):
        # CPI sends ~d field elements; the IBLT protocol sends ~1.8d cells of
        # (count, key, checksum); CPI should therefore be smaller.
        alice, bob = make_instance(400, 20, seed=14)
        by_cpi = cpi(alice, bob, difference_bound=22, seed=15)
        by_iblt = reconcile(
            alice, bob, protocol="ibf", difference_bound=22, universe_size=UNIVERSE, seed=15
        )
        assert by_cpi.success and by_iblt.success
        assert by_cpi.total_bits < by_iblt.total_bits

    def test_message_size_accounting(self):
        message = cpi_encode({1, 2, 3}, 5, UNIVERSE)
        assert message.size_bits > 0
        assert len(message.evaluations) == 6

    def test_invalid_bound(self):
        with pytest.raises(ParameterError):
            cpi_encode({1}, -1, UNIVERSE)

    def test_decode_rejects_size_gap_beyond_bound(self):
        message = cpi_encode(set(range(50)), 3, UNIVERSE)
        success, recovered = cpi_decode(message, set(), UNIVERSE)
        assert not success and recovered is None

    def test_size_gap_short_circuit_precedes_field_work(self):
        # The |size_delta| > bound rejection must fire before any field
        # arithmetic: a message carrying a *composite* modulus would raise
        # inside PrimeField construction if the field were built first.
        from repro.core.setrecon.cpi import CPIMessage

        bogus = CPIMessage(
            set_size=50, evaluations=(1, 2, 3, 4), difference_bound=3, prime=4
        )
        assert cpi_decode(bogus, set(), UNIVERSE) == (False, None)

    def test_field_for_universe_is_cached(self):
        from repro.core.setrecon.cpi import field_for_universe

        assert field_for_universe(UNIVERSE, 8) is field_for_universe(UNIVERSE, 8)
        with pytest.raises(ParameterError):
            field_for_universe(0, 1)
        # Errors are not cached: the same bad call keeps raising.
        with pytest.raises(ParameterError):
            field_for_universe(0, 1)

    @pytest.mark.parametrize("field_kernel", ["auto", "numpy", None])
    def test_explicit_kernel_selection(self, field_kernel):
        alice, bob = make_instance(90, 7, seed=21)
        result = cpi(
            alice, bob, difference_bound=8, seed=22, field_kernel=field_kernel
        )
        assert result.success and result.recovered == alice

    @pytest.mark.parametrize("element", [UNIVERSE, 2**70])
    def test_an_element_outside_the_universe_is_refused(self, element):
        # Its residue mod p could decode as another element of the universe.
        for alice, bob in (({element, 5}, {5}), ({5}, {element, 5})):
            with pytest.raises(ParameterError, match="below universe_size"):
                cpi(alice, bob, difference_bound=2)

    def test_direct_calls_refuse_an_element_past_the_int64_arrays(self):
        # Below 2**31 the field runs on int64 arrays, which cannot hold 2**70.
        with pytest.raises(ParameterError, match="below universe_size"):
            cpi_encode({2**70, 5}, 2, 1 << 20)
        message = cpi_encode({3, 5}, 2, 1 << 20)
        with pytest.raises(ParameterError, match="below universe_size"):
            cpi_decode(message, {2**70, 5}, 1 << 20)

    def test_direct_calls_refuse_an_element_aliasing_one_in_the_universe(self):
        # At u = 2**20 and d = 2 the field is GF(1048583): 1048583 + 7 is
        # no overflow, but it reduces to 7 and used to decode as 7.
        alias = 1048583 + 7
        with pytest.raises(ParameterError, match="below universe_size"):
            cpi_encode({alias, 5}, 2, 1 << 20)
        message = cpi_encode({7, 5}, 2, 1 << 20)
        with pytest.raises(ParameterError, match="below universe_size"):
            cpi_decode(message, {alias, 5}, 1 << 20)
        assert cpi_decode(message, {5}, 1 << 20) == (True, {5, 7})

    def test_the_reference_kernel_name_is_refused(self):
        alice, bob = make_instance(90, 7, seed=21)
        with pytest.raises(ParameterError, match="unknown field kernel 'python'"):
            cpi(alice, bob, difference_bound=8, seed=22, field_kernel="python")

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1), min_size=0, max_size=25),
        st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1), min_size=0, max_size=25),
    )
    def test_property_exact_recovery(self, alice, bob):
        difference = len(alice ^ bob)
        result = cpi(alice, bob, difference_bound=difference, seed=17)
        assert result.success and result.recovered == alice


class TestMultisetEncoding:
    def test_round_trip(self):
        multiset = {3: 2, 9: 1, 100: 5}
        encoded = encode_multiset(multiset, max_multiplicity=8)
        assert decode_multiset(encoded, max_multiplicity=8) == multiset

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ParameterError):
            encode_multiset({1: 0}, 4)

    def test_rejects_excess_multiplicity(self):
        with pytest.raises(ParameterError):
            encode_multiset({1: 9}, 4)

    def test_rejects_invalid_bound(self):
        with pytest.raises(ParameterError):
            encode_multiset({1: 1}, 0)

    def test_symmetric_difference(self):
        a = {1: 2, 2: 1}
        b = {1: 1, 3: 2}
        assert multiset_symmetric_difference(a, b) == 1 + 1 + 2

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=1, max_value=7),
            max_size=20,
        )
    )
    def test_encode_decode_property(self, multiset):
        encoded = encode_multiset(multiset, 7)
        assert decode_multiset(encoded, 7) == multiset


class TestMultisetReconciliation:
    def test_basic(self):
        alice = {1: 3, 2: 1, 50: 2}
        bob = {1: 2, 2: 1, 60: 1}
        result = reconcile_multiset_known_d(alice, bob, 8, 128, 8, seed=1)
        assert result.success and result.recovered == alice

    def test_identical(self):
        alice = {5: 2, 9: 4}
        result = reconcile_multiset_known_d(alice, dict(alice), 2, 64, 8, seed=2)
        assert result.success and result.recovered == alice

    def test_multiplicity_only_changes(self):
        alice = {7: 5}
        bob = {7: 1}
        result = reconcile_multiset_known_d(alice, bob, 4, 64, 8, seed=3)
        assert result.success and result.recovered == alice
