"""Cross-module integration tests: the public API end to end."""

import importlib

import pytest

import repro
from repro import SetOfSets, minimum_matching_difference, reconcile
from repro.documents import DocumentCollection
from repro.graphs import forest_canonical_form
from repro.workloads import (
    edited_corpus_pair,
    flipped_table_pair,
    forest_instance,
    sets_of_sets_instance,
)
from repro.graphs.random_graphs import reconciliation_pair


def test_version_exported():
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.core.setrecon",
        "repro.core.setsofsets",
        "repro.graphs",
        "repro.db",
        "repro.documents",
    ],
)
def test_every_exported_name_resolves(module):
    # A stale ``__all__`` entry breaks only ``from module import *``.
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []


def test_readme_quickstart_snippet():
    alice = SetOfSets([{1, 2, 3}, {4, 5}, {6}])
    bob = SetOfSets([{1, 2, 3}, {4, 5, 7}, {6}])
    result = repro.reconcile(alice, bob, protocol="cascading", difference_bound=2,
                             universe_size=8, max_child_size=4, seed=42)
    assert result.success and result.recovered == alice


def test_sets_of_sets_pipeline_with_unknown_difference():
    instance = sets_of_sets_instance(20, 12, 256, 7, seed=1, max_children_touched=3)
    result = reconcile(
        instance.alice, instance.bob, protocol="multiround", difference_bound=None,
        universe_size=256, max_child_size=instance.max_child_size, seed=2,
    )
    assert result.success and result.recovered == instance.alice
    assert result.num_rounds == 4
    assert result.total_bits > 0


def test_database_pipeline():
    alice, bob, flips = flipped_table_pair(30, 48, 0.4, 5, seed=3, max_rows_touched=3)
    result = reconcile(alice, bob, protocol="db", difference_bound=flips + 2, seed=4)
    assert result.success and result.recovered == alice


def test_document_pipeline():
    alice_texts, bob_texts = edited_corpus_pair(20, 40, 2, 2, 1, seed=5)
    alice = DocumentCollection(alice_texts, 3, seed=5, signature_size=16)
    bob = DocumentCollection(bob_texts, 3, seed=5, signature_size=16)
    result = reconcile(
        alice, bob, protocol="documents", difference_bound=32, seed=6,
        differing_children_bound=8,
    )
    assert result.success and result.recovered == alice.to_sets_of_sets()


def test_forest_pipeline():
    instance = forest_instance(60, 2, seed=7, max_depth=4)
    result = reconcile(
        instance.alice, instance.bob, protocol="forest",
        difference_bound=max(1, instance.num_edits), max_depth=instance.max_depth, seed=8,
    )
    assert result.success
    assert forest_canonical_form(result.recovered) == forest_canonical_form(instance.alice)


def test_labeled_graph_pipeline():
    pair = reconciliation_pair(80, 0.25, 6, seed=9, relabel_alice=False)
    result = reconcile(pair.alice, pair.bob, protocol="labeled", difference_bound=8, seed=10)
    assert result.success and result.recovered == pair.alice


def test_matching_difference_agrees_with_planted_difference():
    instance = sets_of_sets_instance(15, 8, 128, 5, seed=11, max_children_touched=2)
    assert minimum_matching_difference(instance.alice, instance.bob) <= 5
