"""Tests for IBLT-based set reconciliation (Corollaries 2.2 and 3.2)."""

import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import reconcile
from repro.core.setrecon import apply_difference, symmetric_difference_size
from repro.errors import ParameterError

UNIVERSE = 1 << 24
#: Small key sets with one key past 2**64 in reach (the list route).
KEYS = st.sets(st.integers(0, 12) | st.just((1 << 64) + 3), max_size=8)

ibf = functools.partial(reconcile, protocol="ibf", universe_size=UNIVERSE)


def make_instance(size, difference, seed):
    rng = random.Random(seed)
    alice = set(rng.sample(range(UNIVERSE), size))
    bob = set(alice)
    removals = rng.sample(sorted(alice), difference // 2)
    for element in removals:
        bob.discard(element)
    while symmetric_difference_size(alice, bob) < difference:
        bob.add(rng.randrange(UNIVERSE))
    return alice, bob


class TestHelpers:
    def test_symmetric_difference_size(self):
        assert symmetric_difference_size({1, 2}, {2, 3}) == 2

    def test_apply_difference(self):
        assert apply_difference({1, 2, 3}, to_add={4}, to_remove={1}) == {2, 3, 4}


class TestKnownD:
    def test_basic_reconciliation(self):
        alice, bob = make_instance(500, 20, seed=1)
        result = ibf(alice, bob, difference_bound=25, seed=2)
        assert result.success and result.recovered == alice

    def test_identical_sets(self):
        alice, _ = make_instance(100, 0, seed=3)
        result = ibf(alice, set(alice), difference_bound=1, seed=4)
        assert result.success and result.recovered == alice

    def test_empty_alice(self):
        result = ibf(set(), {1, 2, 3}, difference_bound=4, seed=5)
        assert result.success and result.recovered == set()

    def test_empty_bob(self):
        result = ibf({1, 2, 3}, set(), difference_bound=4, seed=6)
        assert result.success and result.recovered == {1, 2, 3}

    def test_one_round(self):
        alice, bob = make_instance(100, 4, seed=7)
        result = ibf(alice, bob, difference_bound=6, seed=8)
        assert result.num_rounds == 1

    def test_underestimated_bound_fails_detectably(self):
        alice, bob = make_instance(500, 200, seed=9)
        result = ibf(alice, bob, difference_bound=5, seed=10)
        assert not result.success
        assert result.recovered is None

    def test_communication_scales_with_bound_not_set_size(self):
        small_alice, small_bob = make_instance(100, 10, seed=11)
        large_alice, large_bob = make_instance(5000, 10, seed=12)
        small = ibf(small_alice, small_bob, difference_bound=12, seed=13)
        large = ibf(large_alice, large_bob, difference_bound=12, seed=13)
        assert small.success and large.success
        # Only the tiny set-size counter may differ; the IBLT itself is
        # identical in size because it depends on the bound, not on |S|.
        assert abs(small.total_bits - large.total_bits) <= 16

    def test_communication_grows_with_bound(self):
        alice, bob = make_instance(500, 10, seed=14)
        loose = ibf(alice, bob, difference_bound=100, seed=15)
        tight = ibf(alice, bob, difference_bound=12, seed=15)
        assert loose.total_bits > tight.total_bits

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            ibf({1}, {1}, difference_bound=-1, seed=1)
        with pytest.raises(ParameterError):
            reconcile({1}, {1}, protocol="ibf", difference_bound=1, universe_size=0, seed=1)

    def test_success_rate_over_seeds(self):
        alice, bob = make_instance(400, 30, seed=20)
        successes = sum(
            ibf(alice, bob, difference_bound=35, seed=s).success for s in range(20)
        )
        assert successes >= 19

    @settings(max_examples=20, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1), max_size=40),
        st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1), max_size=40),
        st.integers(min_value=0, max_value=1000),
    )
    def test_property_random_sets(self, alice, bob, seed):
        difference = symmetric_difference_size(alice, bob)
        result = ibf(alice, bob, difference_bound=difference + 2, seed=seed)
        if result.success:
            assert result.recovered == alice


class TestUnknownD:
    def test_two_rounds(self):
        alice, bob = make_instance(600, 16, seed=31)
        result = ibf(alice, bob, difference_bound=None, seed=32)
        assert result.success and result.recovered == alice
        assert result.num_rounds == 2
        assert result.details["estimated_difference"] >= 1

    def test_zero_difference(self):
        alice, _ = make_instance(200, 0, seed=33)
        result = ibf(alice, set(alice), difference_bound=None, seed=34)
        assert result.success and result.recovered == alice

    def test_large_difference(self):
        alice, bob = make_instance(800, 300, seed=35)
        result = ibf(alice, bob, difference_bound=None, seed=36)
        assert result.success and result.recovered == alice


class TestSetSource:
    """A sketch source over a set or a ``uint64`` array validates once and
    returns the recovered set in the form it was given."""

    BOB = [3, 10, 42, 77]

    def source(self, form):
        from repro.protocols.parties.setrecon import SetReconContext, SetSource

        if form == "array":
            items = np.array(self.BOB, dtype=np.uint64)
        else:
            items = set(self.BOB)
        return SetSource(items, SetReconContext(universe_size=128, seed=7))

    @pytest.mark.parametrize("form", ["set", "array"])
    def test_a_source_hashes_the_set_it_returns(self, form):
        from repro.protocols.parties.setrecon import set_verification_hash

        # 10 is added though Bob holds it; 99 is removed though he lacks it.
        recovered_hash, size, elements = self.source(form).with_difference(
            added={10, 5}, removed={99, 42}
        )
        assert recovered_hash == set_verification_hash(7, elements)
        assert size == len(elements)
        assert sorted(list(elements)) == [3, 5, 10, 77]

    @pytest.mark.parametrize("form", ["set", "array"])
    def test_every_sketch_agrees_across_forms(self, form):
        source, reference = self.source(form), self.source("set")
        assert source.size == reference.size
        assert source.set_hash == reference.set_hash
        assert source.owned_table(4).serialize() == reference.owned_table(4).serialize()
        table = reference.owned_table(4)
        assert (
            source.difference_from(table).serialize()
            == reference.difference_from(table).serialize()
        )
        assert source.estimator(1).query() == reference.estimator(1).query()

    @pytest.mark.parametrize("form", ["set", "list", "array"])
    @given(base=KEYS, added=KEYS, removed=KEYS)
    @example(base={1, 2}, added={1, 3}, removed={2, 4})  # added in B, removed not
    @example(base={1, 2}, added={3, 2}, removed={2, 3})  # added meets removed
    @example(base={1, 2}, added=set(), removed=set())  # empty difference
    @example(base=set(), added={5}, removed={5})
    @settings(max_examples=60, deadline=None)
    def test_the_o_d_hash_equals_the_materialized_one(self, form, base, added, removed):
        """Bob's hash is his own XOR the checksums of the keys whose
        membership flips; it must equal hashing what he materializes, for any
        base set and any difference, a forged one included."""
        from repro.protocols.parties.setrecon import (
            SetReconContext,
            SetSource,
            set_verification_hash,
        )

        if form == "array":
            # A key array holds keys below 2**64, and so does its difference.
            base, added, removed = ({key for key in keys if key >> 64 == 0}
                                    for keys in (base, added, removed))
            items = np.array(sorted(base), dtype=np.uint64)
        else:
            items = base if form == "set" else sorted(base)
        universe = 1 << (64 if form == "array" else 80)
        source = SetSource(items, SetReconContext(universe_size=universe, seed=7))
        recovered_hash, size, recovered = source.with_difference(added, removed)
        expected = apply_difference(base, added, removed)
        assert sorted(recovered.tolist() if form == "array" else recovered) == sorted(expected)
        assert size == len(recovered) == len(expected)
        assert recovered_hash == set_verification_hash(7, recovered)

    def test_bob_hashes_his_set_once_and_the_difference(self, monkeypatch):
        """One ``ibf`` session at n = 4,096 and d = 16: Bob's verification
        hashes his n keys and O(d) flipped ones, not a second pass of n."""
        from repro.hashing import Checksum
        from repro.protocols.parties import setrecon
        from repro.protocols.session import run_session

        alice, bob = make_instance(4096, 16, seed=41)
        ctx = setrecon.SetReconContext(UNIVERSE, seed=42)
        alice_source = setrecon.SetSource(alice, ctx)
        alice_source.set_hash  # noqa: B018 - Alice's hash is not Bob's work
        verification = setrecon._verification_checksum(ctx.seed)
        hashed = {"of_key": 0, "of_keys_array": 0}

        def spying(name):
            original = getattr(Checksum, name)

            def counted(self, keys):
                if self is verification:
                    hashed[name] += 1 if name == "of_key" else len(keys)
                return original(self, keys)

            monkeypatch.setattr(Checksum, name, counted)

        spying("of_key")
        spying("of_keys_array")
        bob_party = setrecon.ibf_bob(setrecon.SetSource(bob, ctx), 32)
        result = run_session(setrecon.ibf_alice(alice_source, 32), bob_party)
        assert result.success and result.recovered == alice
        # Each flipped key once, and Bob's own keys in one array pass.
        assert hashed == {"of_key": 16, "of_keys_array": len(bob)}

    def test_an_array_source_reads_as_a_set(self):
        source = self.source("array")
        assert 10 in source.items and 11 not in source.items
        assert source.items | {5} == {3, 5, 10, 42, 77}

    @pytest.mark.parametrize("items", [{1, -2}, {1.5}, [3, "4"]])
    def test_invalid_items_fail_at_construction(self, items):
        from repro.protocols.parties.setrecon import SetReconContext, SetSource

        with pytest.raises(ParameterError):
            SetSource(items, SetReconContext(universe_size=128, seed=7))

    @pytest.mark.parametrize(
        "items", [[3, 5, 3], (7, 7), np.array([9, 2, 9], dtype=np.uint64)],
        ids=["list", "tuple", "array"],
    )
    def test_repeated_items_fail_at_construction(self, items):
        from repro.protocols.parties.setrecon import SetReconContext, SetSource

        with pytest.raises(ParameterError, match="repeats an element"):
            SetSource(items, SetReconContext(universe_size=128, seed=7))


@pytest.mark.parametrize("protocol", ["ibf", "cpi"])
def test_a_repeated_item_is_refused_before_any_message(protocol):
    """A repeat cancels out of the whole-set hash but stays in the sketch,
    so the session used to fail without saying why."""
    with pytest.raises(ParameterError, match="repeats an element"):
        reconcile(
            [1, 2, 2, 3, 9], [1, 2, 3, 3, 4], protocol=protocol,
            difference_bound=4, universe_size=100,
        )
    # The same elements without the repeats reconcile.
    result = reconcile(
        [1, 2, 3, 9], [1, 2, 3, 4], protocol=protocol, difference_bound=4, universe_size=100
    )
    assert result.success and result.recovered == {1, 2, 3, 9}
