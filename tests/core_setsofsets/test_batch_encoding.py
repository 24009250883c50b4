"""Tests for the batched child-sketch pipeline and the PR 3 bugfixes.

Covers:

* ``ChildEncodingScheme.encode_all`` / ``child_set_hash_many`` bit-identity
  with the scalar paths, and with child tables built on the reference store;
* ``encode_children``: every scheme's keys from one shared flatten,
  validation and child-hash pass, equal to the per-scheme and per-child forms;
* the per-reconcile :class:`ChildTableCache` (candidate tables built once,
  not once per (Alice key, candidate) pair);
* the repeated-doubling clamp: the top bound is attempted even when it is
  not a power of two times the initial bound.
"""

import random

import pytest

import reference_store
from reference_store import STORES
from repro import reconcile
from repro.core.setsofsets import SetOfSets
from repro.core.setsofsets.encoding import (
    ChildEncodingScheme,
    ChildTableCache,
    child_set_hash,
    child_set_hash_many,
    encode_children,
)
from repro.core.setsofsets import encoding
from repro.protocols.parties import setsofsets
from repro.protocols.parties.setsofsets import INITIAL_BOUND
from repro.errors import CapacityError
from repro.iblt import IBLT, IBLTParameters
from repro.workloads import sets_of_sets_instance

UNIVERSE = 512

PARAMS = IBLTParameters.for_difference(
    4, 24, seed=31, num_hashes=3, checksum_bits=24, count_bits=16
)
SCHEME = ChildEncodingScheme(PARAMS, 48, seed=77)


def random_children(count, seed=3):
    rng = random.Random(seed)
    return [
        frozenset(rng.sample(range(1 << 20), rng.randrange(1, 9)))
        for _ in range(count)
    ]


def encoded_on(store, scheme, child):
    """``scheme.encode(child)``, the child's table built on ``store``."""
    if store == "numpy":
        return scheme.encode(child)
    table = reference_store.table_of(scheme.child_params, child)
    return (reference_store.serialize(table) << scheme.hash_bits) | child_set_hash(
        child, scheme.seed, scheme.hash_bits
    )


class TestBatchEncoding:
    @pytest.mark.parametrize("backend", STORES)
    def test_encode_all_matches_scalar_encode(self, backend):
        children = random_children(30)
        assert SCHEME.encode_all(children) == [
            encoded_on(backend, SCHEME, child) for child in children
        ]

    def test_encode_all_empty(self):
        assert SCHEME.encode_all([]) == []

    def test_child_set_hash_many_matches_scalar(self):
        children = random_children(20, seed=9) + [frozenset()]
        assert child_set_hash_many(children, 5, 48) == [
            child_set_hash(child, 5, 48) for child in children
        ]

    def test_encode_all_identical_across_backends(self):
        children = random_children(30, seed=15)
        assert SCHEME.encode_all(children) == [
            encoded_on("reference", SCHEME, child) for child in children
        ]


def level_schemes(hash_seeds, key_bits=24):
    """Cascade-like schemes: growing child tables, one hash seed per level."""
    return [
        ChildEncodingScheme(
            IBLTParameters.for_difference(
                2**level, key_bits, seed=100 + level,
                num_hashes=3, checksum_bits=24, count_bits=16,
            ),
            48,
            seed=hash_seed,
        )
        for level, hash_seed in enumerate(hash_seeds, start=1)
    ]


class TestEncodeChildren:
    @pytest.mark.parametrize(
        "hash_seeds", [(77, 77, 77), (77, 78, 77)], ids=["shared-seed", "own-seeds"]
    )
    def test_equals_per_scheme_and_per_child_encoding(self, hash_seeds, monkeypatch):
        schemes = level_schemes(hash_seeds)
        children = random_children(30, seed=11) + [frozenset()]
        hash_passes = []
        hash_many = encoding.child_set_hash_many

        def counting(children, seed, bits):
            hash_passes.append((seed, bits))
            return hash_many(children, seed, bits)

        monkeypatch.setattr(encoding, "child_set_hash_many", counting)
        encoded = encode_children(schemes, children)
        # One hash pass per distinct (seed, width), not one per scheme.
        assert sorted(hash_passes) == sorted({(seed, 48) for seed in hash_seeds})
        monkeypatch.undo()
        for scheme, keys in zip(schemes, encoded):
            assert keys == scheme.encode_all(children)
            for store in STORES:
                assert keys == [encoded_on(store, scheme, child) for child in children]

    def test_no_schemes_and_no_children(self):
        assert encode_children([], random_children(3)) == []
        assert encode_children(level_schemes((77, 77)), []) == [[], []]

    @pytest.mark.parametrize("narrow_level", [0, 1], ids=["first", "later"])
    def test_an_element_past_a_schemes_key_bits_raises_as_that_scheme_does(self, narrow_level):
        # 5000 fits 24 bits and not 12: the shared array must be checked
        # against every scheme's own width, first level or not.
        schemes = level_schemes((77, 77))
        narrow = level_schemes((77, 77), key_bits=12)[narrow_level]
        schemes[narrow_level] = narrow
        children = [[1, 2], [3, 5000]]
        with pytest.raises(CapacityError) as alone:
            narrow.encode_all(children)
        with pytest.raises(CapacityError) as shared:
            encode_children(schemes, children)
        assert str(shared.value) == str(alone.value)
        assert "key_bits=12" in str(shared.value)


class TestChildTableCache:
    def test_cached_tables_match_from_items(self):
        children = random_children(10, seed=21)
        cache = ChildTableCache(SCHEME)
        cache.add_children(children)
        for child in children:
            assert cache.get(child) == IBLT.from_items(PARAMS, child)

    def test_add_children_builds_each_table_once(self):
        children = random_children(6, seed=23)
        cache = ChildTableCache(SCHEME)
        cache.add_children(children)
        first = cache.get(children[0])
        cache.add_children(children)  # second add is a no-op
        assert cache.get(children[0]) is first
        assert len(cache) == len(set(children))

    def test_lazy_build_on_get(self):
        cache = ChildTableCache(SCHEME)
        child = frozenset({1, 2, 3})
        assert cache.get(child) == IBLT.from_items(PARAMS, child)
        assert len(cache) == 1


class TestNoRedundantTableBuilds:
    """The satellite bugfix: decode loops must not rebuild candidate tables
    per (Alice key, candidate) pair via ``IBLT.from_items``."""

    @pytest.fixture
    def from_items_counter(self, monkeypatch):
        calls = []
        original = IBLT.from_items.__func__

        def counting(cls, params, items, backend=None):
            calls.append(params)
            return original(cls, params, items, backend=backend)

        monkeypatch.setattr(IBLT, "from_items", classmethod(counting))
        return calls

    def test_iblt_of_iblts_decode_loop(self, from_items_counter):
        instance = sets_of_sets_instance(
            24, 12, UNIVERSE, 12, seed=41, max_children_touched=6
        )
        result = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts",
            difference_bound=instance.planted_difference, universe_size=UNIVERSE,
            seed=9, differing_children_bound=instance.differing_children + 1,
        )
        assert result.success and result.recovered == instance.alice
        assert from_items_counter == []

    def test_cascading_decode_loop(self, from_items_counter):
        instance = sets_of_sets_instance(
            24, 12, UNIVERSE, 12, seed=43, max_children_touched=6
        )
        result = reconcile(
            instance.alice, instance.bob, protocol="cascading",
            difference_bound=instance.planted_difference, universe_size=UNIVERSE,
            max_child_size=instance.max_child_size, seed=9,
        )
        assert result.success and result.recovered == instance.alice
        assert from_items_counter == []


class TestDoublingClampToMaxBound:
    """``bound *= 2`` must not jump past the doubling top without the top
    ever being attempted.  The top is ``2 n`` (``_doubling_top``); these
    sessions lower it to 5 so the clamp shows on small instances."""

    @pytest.fixture(autouse=True)
    def top_of_five(self, monkeypatch):
        monkeypatch.setattr(setsofsets, "_doubling_top", lambda ctx: 5)

    def test_iblt_of_iblts_succeeds_exactly_at_clamped_bound(self):
        # Chosen (by search over seeds) so that bounds 1, 2 and 4 all fail
        # and the clamped final attempt at max_bound=5 succeeds; before the
        # clamp the doubling jumped 4 -> 8 > 5 and the run failed outright.
        instance = sets_of_sets_instance(
            24, 12, UNIVERSE, 24, seed=3, max_children_touched=8
        )
        result = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts",
            difference_bound=None, universe_size=UNIVERSE, seed=103,
        )
        assert result.success and result.recovered == instance.alice
        assert result.details["final_difference_bound"] == 5
        assert result.attempts == 4  # bounds 1, 2, 4, 5

    def test_iblt_of_iblts_attempts_max_bound_before_giving_up(self):
        # A difference far above max_bound: every attempt fails, but the
        # attempt sequence must still end exactly at max_bound.
        instance = sets_of_sets_instance(
            16, 12, UNIVERSE, 48, seed=5, max_children_touched=12
        )
        result = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts",
            difference_bound=None, universe_size=UNIVERSE, seed=11,
        )
        assert not result.success
        assert result.details["failure"] == "exceeded-max-bound"
        assert result.attempts == 4  # bounds 1, 2, 4, 5 -- not 1, 2, 4

    def test_cascading_succeeds_exactly_at_clamped_bound(self):
        # Bounds 1, 2 and 4 fail; the clamped final attempt at 5 succeeds
        # (before the clamp the doubling jumped 4 -> 8 > 5 and failed).
        # Seed 31 is the first instance seed on which this holds under the
        # cascade's cheapest-truncation plan.
        instance = sets_of_sets_instance(
            16, 12, UNIVERSE, 48, seed=31, max_children_touched=12
        )
        result = reconcile(
            instance.alice, instance.bob, protocol="cascading", difference_bound=None,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size,
            seed=11,
        )
        assert result.success and result.recovered == instance.alice
        assert result.details["final_difference_bound"] == 5
        assert result.attempts == 4  # bounds 1, 2, 4, 5

    def test_cascading_attempts_max_bound_before_giving_up(self):
        instance = sets_of_sets_instance(
            16, 12, UNIVERSE, 80, seed=0, max_children_touched=16
        )
        result = reconcile(
            instance.alice, instance.bob, protocol="cascading", difference_bound=None,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size,
            seed=11,
        )
        assert not result.success
        assert result.details["failure"] == "exceeded-max-bound"
        assert result.attempts == 4  # bounds 1, 2, 4, 5 -- not 1, 2, 4

    def test_a_top_below_the_initial_bound_attempts_nothing(self, monkeypatch):
        monkeypatch.setattr(setsofsets, "_doubling_top", lambda ctx: INITIAL_BOUND - 1)
        alice = SetOfSets([{1, 2}])
        result = reconcile(
            alice, alice, protocol="iblt_of_iblts", difference_bound=None,
            universe_size=UNIVERSE, seed=1,
        )
        assert not result.success and result.attempts == 0


def test_the_doubling_top_is_twice_the_parents_total_size():
    alice, bob = SetOfSets([{1, 2}, {3}]), SetOfSets([{1, 2, 4}])
    ctx = setsofsets.context_for(alice, bob, UNIVERSE, 1)
    assert setsofsets._doubling_top(ctx) == 2 * (3 + 3)
