"""Tests for rooted forests, AHU signatures and forest reconciliation (Section 6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import reconcile
from repro.errors import ParameterError
from repro.graphs import RootedForest, ahu_signatures, forest_canonical_form
from repro.workloads import forest_instance, perturb_forest, random_forest


class TestRootedForest:
    def test_basic_structure(self):
        forest = RootedForest([None, 0, 0, 1, None])
        assert forest.num_vertices == 5
        assert forest.roots() == [0, 4]
        assert forest.children(0) == [1, 2]
        assert forest.parent(3) == 1
        assert forest.edges() == [(0, 1), (0, 2), (1, 3)]

    def test_depths(self):
        forest = RootedForest([None, 0, 1, 2])
        assert forest.depths() == [0, 1, 2, 3]
        assert forest.max_depth == 3

    def test_cycle_rejected(self):
        with pytest.raises(ParameterError):
            RootedForest([1, 0])

    def test_self_parent_rejected(self):
        with pytest.raises(ParameterError):
            RootedForest([0])

    def test_delete_edge_makes_root(self):
        forest = RootedForest([None, 0])
        forest.delete_edge(1)
        assert forest.roots() == [0, 1]
        with pytest.raises(ParameterError):
            forest.delete_edge(1)

    def test_insert_edge_rules(self):
        forest = RootedForest([None, None, 1])
        forest.insert_edge(2, 0)          # attach root 0 under 2
        assert forest.parent(0) == 2
        with pytest.raises(ParameterError):
            forest.insert_edge(0, 2)      # 2 is not a root
        fresh = RootedForest([None, None])
        with pytest.raises(ParameterError):
            fresh.insert_edge(0, 0)       # would self-loop / cycle

    def test_copy_independent(self):
        forest = RootedForest([None, 0])
        clone = forest.copy()
        clone.delete_edge(1)
        assert forest.parent(1) == 0


class TestCanonicalFormAndSignatures:
    def test_isomorphic_forests_same_form(self):
        first = RootedForest([None, 0, 0, 1])
        # Same shape with vertices renamed.
        second = RootedForest([None, 0, 1, 0])
        assert forest_canonical_form(first) == forest_canonical_form(second)

    def test_non_isomorphic_forests_differ(self):
        path = RootedForest([None, 0, 1])     # a path of depth 2
        star = RootedForest([None, 0, 0])     # a root with two leaves
        assert forest_canonical_form(path) != forest_canonical_form(star)

    def test_forest_vs_split_forest(self):
        joined = RootedForest([None, 0])
        split = RootedForest([None, None])
        assert forest_canonical_form(joined) != forest_canonical_form(split)

    def test_signatures_respect_isomorphism(self):
        first = RootedForest([None, 0, 0, 1])
        second = RootedForest([None, 0, 1, 0])
        assert sorted(ahu_signatures(first, 5)) == sorted(ahu_signatures(second, 5))

    def test_signatures_depend_on_seed(self):
        forest = RootedForest([None, 0, 0])
        assert ahu_signatures(forest, 1) != ahu_signatures(forest, 2)

    def test_leaves_share_signature(self):
        forest = RootedForest([None, 0, 0])
        signatures = ahu_signatures(forest, 3)
        assert signatures[1] == signatures[2]
        assert signatures[0] != signatures[1]


class TestWorkloadGenerators:
    def test_random_forest_respects_depth(self):
        forest = random_forest(120, seed=1, max_depth=4)
        assert forest.num_vertices == 120
        assert forest.max_depth <= 4

    def test_perturb_forest_applies_edits(self):
        forest = random_forest(60, seed=2, max_depth=5)
        edited, applied = perturb_forest(forest, 5, seed=3)
        assert applied >= 4
        assert edited.num_vertices == forest.num_vertices

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            random_forest(0, seed=1)
        with pytest.raises(ParameterError):
            perturb_forest(random_forest(5, seed=1), -1, seed=2)


class TestForestReconciliation:
    def test_end_to_end(self):
        instance = forest_instance(80, 3, seed=5, max_depth=4)
        result = reconcile(
            instance.alice, instance.bob, protocol="forest",
            difference_bound=instance.num_edits, max_depth=instance.max_depth, seed=6,
        )
        assert result.success
        assert forest_canonical_form(result.recovered) == forest_canonical_form(instance.alice)

    def test_identical_forests(self):
        forest = random_forest(50, seed=7, max_depth=4)
        result = reconcile(
            forest, forest.copy(), protocol="forest", difference_bound=1, max_depth=None,
            seed=8,
        )
        assert result.success
        assert forest_canonical_form(result.recovered) == forest_canonical_form(forest)

    def test_single_edit(self):
        alice = random_forest(40, seed=9, max_depth=3)
        bob, applied = perturb_forest(alice, 1, seed=10)
        result = reconcile(
            alice, bob, protocol="forest", difference_bound=max(1, applied), max_depth=None,
            seed=11,
        )
        assert result.success
        assert forest_canonical_form(result.recovered) == forest_canonical_form(alice)

    def test_one_round(self):
        instance = forest_instance(60, 2, seed=12, max_depth=4)
        result = reconcile(
            instance.alice, instance.bob, protocol="forest",
            difference_bound=instance.num_edits, max_depth=instance.max_depth, seed=13,
        )
        assert result.num_rounds == 1

    def test_duplicate_subtrees_handled(self):
        # Many isomorphic leaves attached to two roots: heavy multiplicity.
        parents = [None, None] + [0] * 10 + [1] * 10
        alice = RootedForest(parents)
        bob = alice.copy()
        bob.delete_edge(2)
        result = reconcile(
            alice, bob, protocol="forest", difference_bound=1, max_depth=1, seed=14,
        )
        assert result.success
        assert forest_canonical_form(result.recovered) == forest_canonical_form(alice)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_random_instances(self, seed):
        instance = forest_instance(40, 2, seed=seed, max_depth=3)
        result = reconcile(
            instance.alice, instance.bob, protocol="forest",
            difference_bound=max(1, instance.num_edits), max_depth=instance.max_depth,
            seed=seed + 1,
        )
        if result.success:
            assert forest_canonical_form(result.recovered) == forest_canonical_form(
                instance.alice
            )
