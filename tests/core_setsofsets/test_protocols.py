"""End-to-end tests for the four set-of-sets reconciliation protocols."""

import pytest

from repro import reconcile
from repro.core.setsofsets import SetOfSets
from repro.errors import ParameterError
from repro.protocols.parties.setsofsets import _cascade_plan, context_for
from repro.workloads import sets_of_sets_instance

UNIVERSE = 512


def small_instance(seed=1, changes=6, children=24, child_size=12, touched=3):
    return sets_of_sets_instance(
        children, child_size, UNIVERSE, changes, seed, max_children_touched=touched
    )


def run_known(protocol_name, instance, seed=9):
    """Dispatch to a known-d protocol with its natural arguments."""
    options = dict(universe_size=UNIVERSE, seed=seed)
    if protocol_name == "naive":
        options.update(
            difference_bound=instance.differing_children + 1,
            max_child_size=instance.max_child_size,
        )
    elif protocol_name == "iblt_of_iblts":
        options.update(
            difference_bound=instance.planted_difference,
            differing_children_bound=instance.differing_children + 1,
        )
    elif protocol_name in ("cascading", "multiround"):
        options.update(
            difference_bound=instance.planted_difference,
            max_child_size=instance.max_child_size,
        )
    else:
        raise AssertionError(protocol_name)
    return reconcile(instance.alice, instance.bob, protocol=protocol_name, **options)


KNOWN_PROTOCOLS = ["naive", "iblt_of_iblts", "cascading", "multiround"]


@pytest.mark.parametrize("protocol", KNOWN_PROTOCOLS)
class TestKnownDProtocols:
    def test_recovers_alice(self, protocol):
        instance = small_instance(seed=3)
        result = run_known(protocol, instance)
        assert result.success
        assert result.recovered == instance.alice

    def test_identical_parents(self, protocol):
        alice = SetOfSets([{1, 2, 3}, {4, 5}, {6}])
        instance = type("I", (), {})()
        instance.alice = alice
        instance.bob = alice
        instance.planted_difference = 1
        instance.differing_children = 1
        instance.max_child_size = 3
        result = run_known(protocol, instance)
        assert result.success and result.recovered == alice

    def test_single_round(self, protocol):
        instance = small_instance(seed=5)
        result = run_known(protocol, instance)
        expected_rounds = 3 if protocol == "multiround" else 1
        assert result.num_rounds == expected_rounds

    def test_different_seeds_still_succeed(self, protocol):
        instance = small_instance(seed=7)
        successes = sum(run_known(protocol, instance, seed=s).success for s in range(5))
        assert successes >= 4

    def test_larger_difference(self, protocol):
        instance = small_instance(seed=11, changes=20, touched=8)
        result = run_known(protocol, instance)
        assert result.success and result.recovered == instance.alice


class TestNaiveSpecifics:
    def test_whole_child_replacement(self):
        alice = SetOfSets([{1, 2}, {5, 6, 7}])
        bob = SetOfSets([{1, 2}, {8, 9}])
        result = reconcile(
            alice, bob, protocol="naive", difference_bound=4, universe_size=16,
            max_child_size=4, seed=1,
        )
        assert result.success and result.recovered == alice

    def test_unknown_variant_two_rounds(self):
        instance = small_instance(seed=13)
        result = reconcile(
            instance.alice, instance.bob, protocol="naive", difference_bound=None,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=2,
        )
        assert result.success and result.recovered == instance.alice
        assert result.num_rounds == 2

    def test_invalid_bound(self):
        alice = SetOfSets([{1}])
        with pytest.raises(ParameterError):
            reconcile(
                alice, alice, protocol="naive", difference_bound=-1, universe_size=8,
                max_child_size=2, seed=1,
            )

    def test_underestimated_bound_detected(self):
        instance = small_instance(seed=15, changes=12, touched=6)
        result = reconcile(
            instance.alice, instance.bob, protocol="naive", difference_bound=1,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=3,
        )
        assert not result.success


class TestIBLTofIBLTsSpecifics:
    def test_doubling_unknown_d(self):
        instance = small_instance(seed=17)
        result = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts",
            difference_bound=None, universe_size=UNIVERSE, seed=4,
        )
        assert result.success and result.recovered == instance.alice
        assert result.attempts >= 1
        assert result.details["final_difference_bound"] >= 1

    def test_fresh_child_with_fallback(self):
        # A brand-new child that matches nothing on Bob's side: the relaxed
        # fallback decodes it against an arbitrary child (here within bound).
        alice = SetOfSets([{1, 2, 3}, {100, 101}])
        bob = SetOfSets([{1, 2, 3}])
        result = reconcile(
            alice, bob, protocol="iblt_of_iblts", difference_bound=4,
            universe_size=UNIVERSE, seed=5,
        )
        assert result.success and result.recovered == alice

    def test_invalid_bound(self):
        alice = SetOfSets([{1}])
        with pytest.raises(ParameterError):
            reconcile(
                alice, alice, protocol="iblt_of_iblts", difference_bound=-2,
                universe_size=8, seed=1,
            )

    def test_failure_reported_when_bound_too_small(self):
        # Two children differ by 8 elements each, against child tables sized
        # for 1: neither decodes against its partner, nor (the fallback)
        # against any other child of bob's.
        instance = small_instance(seed=19, changes=16, touched=2)
        result = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts", difference_bound=1,
            universe_size=UNIVERSE, seed=6, differing_children_bound=1,
        )
        assert not result.success
        assert result.details["failure"] == "child-iblt-decode"


class TestCascadingSpecifics:
    def test_unknown_d_doubles_until_success(self):
        instance = small_instance(seed=21)
        result = reconcile(
            instance.alice, instance.bob, protocol="cascading", difference_bound=None,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=7,
        )
        assert result.success and result.recovered == instance.alice
        assert result.attempts >= 1

    def test_t_star_branch(self):
        # difference bound >= max_child_size triggers the explicit T* table.
        alice = SetOfSets([{1, 2}, {3, 4}, {10, 11}])
        bob = SetOfSets([{1, 2}, {3, 4}, {20, 21}])
        result = reconcile(
            alice, bob, protocol="cascading", difference_bound=6, universe_size=32,
            max_child_size=2, seed=8,
        )
        assert result.details["used_t_star"]
        assert result.success and result.recovered == alice

    def test_details_reported(self):
        instance = small_instance(seed=23)
        result = run_known("cascading", instance)
        ctx = context_for(
            instance.alice, instance.bob, UNIVERSE, 9,
            max_child_size=instance.max_child_size,
        )
        plan = _cascade_plan(ctx, instance.planted_difference)
        assert result.details["num_levels"] == plan.num_levels
        assert result.details["recovered_children"] >= 0

    def test_a_float_overflowing_bound_sizes_tables_at_the_children_clamp(self):
        # LEVEL_SLACK * d is inf here: each table is clamped before ceil().
        alice = SetOfSets([{1, 2}, {3, 4}])
        bob = SetOfSets([{1, 2}, {3, 5}])
        result = reconcile(
            alice, bob, protocol="cascading", difference_bound=10**308, universe_size=64,
            seed=3,
        )
        assert result.success and result.recovered == alice

    def test_invalid_parameters(self):
        alice = SetOfSets([{1}])
        with pytest.raises(ParameterError):
            reconcile(
                alice, alice, protocol="cascading", difference_bound=2, universe_size=8,
                max_child_size=0, seed=1,
            )


class TestMultiroundSpecifics:
    def test_three_rounds_known(self):
        instance = small_instance(seed=25)
        result = run_known("multiround", instance)
        assert result.num_rounds == 3

    def test_four_rounds_unknown(self):
        instance = small_instance(seed=27)
        result = reconcile(
            instance.alice, instance.bob, protocol="multiround", difference_bound=None,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=10,
        )
        assert result.success and result.recovered == instance.alice
        assert result.num_rounds == 4

    def test_uses_cpi_for_small_differences(self):
        instance = small_instance(seed=29, changes=2, touched=1)
        result = reconcile(
            instance.alice, instance.bob, protocol="multiround", difference_bound=64,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=11,
        )
        assert result.success
        assert result.details["cpi_payloads"] >= 1

    def test_uses_iblt_for_large_differences(self):
        instance = small_instance(seed=31, changes=10, touched=1)
        result = reconcile(
            instance.alice, instance.bob, protocol="multiround", difference_bound=4,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=12,
        )
        assert result.success
        assert result.details["iblt_payloads"] >= 1

    def test_bob_missing_whole_child(self):
        alice = SetOfSets([{1, 2, 3}, {40, 41, 42}])
        bob = SetOfSets([{1, 2, 3}])
        result = reconcile(
            alice, bob, protocol="multiround", difference_bound=6, universe_size=UNIVERSE,
            max_child_size=3, seed=13,
        )
        assert result.success and result.recovered == alice


class TestCommunicationShapes:
    def test_structured_beats_naive_in_dense_regime(self):
        # Table 1 regime: children are dense (h = Theta(u)), so re-sending a
        # whole child (u bits) costs much more than a child IBLT.
        instance = sets_of_sets_instance(
            32, 400, 800, 6, seed=33, max_children_touched=3
        )
        shared = dict(universe_size=800, max_child_size=instance.max_child_size, seed=14)
        naive = reconcile(
            instance.alice, instance.bob, protocol="naive",
            difference_bound=instance.differing_children, **shared,
        )
        multiround = reconcile(
            instance.alice, instance.bob, protocol="multiround",
            difference_bound=instance.planted_difference, **shared,
        )
        assert naive.success and multiround.success
        assert multiround.total_bits < naive.total_bits

    def test_naive_beats_structured_for_tiny_children(self):
        # Crossover: with tiny children the explicit encoding is cheapest.
        instance = sets_of_sets_instance(32, 3, 64, 4, seed=35, max_children_touched=2)
        naive = reconcile(
            instance.alice, instance.bob, protocol="naive",
            difference_bound=instance.differing_children, universe_size=64,
            max_child_size=instance.max_child_size, seed=15,
        )
        flat = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts",
            difference_bound=instance.planted_difference, universe_size=64, seed=15,
            differing_children_bound=instance.differing_children,
        )
        assert naive.success and flat.success
        assert naive.total_bits < flat.total_bits
