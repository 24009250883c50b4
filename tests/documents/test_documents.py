"""Tests for shingling and document-collection reconciliation."""

import pytest

from repro import reconcile
from repro.documents import (
    DocumentCollection,
    classify_documents,
    document_signature,
    shingle_hashes,
)
from repro.documents.shingle import tokenize
from repro.errors import ParameterError
from repro.workloads import edited_corpus_pair, synthetic_corpus


class TestShingling:
    def test_tokenize(self):
        assert tokenize("Hello, World! it's me") == ["hello", "world", "it's", "me"]

    def test_shingle_count(self):
        hashes = shingle_hashes("a b c d e", 3, seed=1)
        assert len(hashes) == 3

    def test_short_document(self):
        assert len(shingle_hashes("one two", 5, seed=1)) == 1
        assert shingle_hashes("", 3, seed=1) == set()

    def test_deterministic_and_seeded(self):
        text = "the quick brown fox jumps"
        assert shingle_hashes(text, 3, seed=1) == shingle_hashes(text, 3, seed=1)
        assert shingle_hashes(text, 3, seed=1) != shingle_hashes(text, 3, seed=2)

    def test_invalid_shingle_size(self):
        with pytest.raises(ParameterError):
            shingle_hashes("a b c", 0, seed=1)

    def test_small_edit_changes_few_shingles(self):
        original = "w0 w1 w2 w3 w4 w5 w6 w7 w8 w9"
        edited = "w0 w1 w2 w3 xx w5 w6 w7 w8 w9"
        a = shingle_hashes(original, 3, seed=3)
        b = shingle_hashes(edited, 3, seed=3)
        assert 0 < len(a ^ b) <= 2 * 3

    def test_signature_subsampling(self):
        text = " ".join(f"w{i}" for i in range(100))
        full = document_signature(text, 3, seed=1)
        small = document_signature(text, 3, seed=1, signature_size=10)
        assert len(small) == 10
        assert small <= full

    def test_signature_invalid_size(self):
        with pytest.raises(ParameterError):
            document_signature("a b c d", 2, seed=1, signature_size=0)


class TestDocumentCollection:
    def test_signatures_parallel_to_documents(self):
        collection = DocumentCollection(["a b c d", "e f g h"], shingle_size=2, seed=1)
        assert len(collection) == 2
        assert len(collection.signatures) == 2

    def test_to_sets_of_sets(self):
        collection = DocumentCollection(["a b c d", "e f g h"], shingle_size=2, seed=1)
        assert collection.to_sets_of_sets().num_children == 2

    def test_universe_and_max_signature(self):
        collection = DocumentCollection(["a b c d e f"], shingle_size=2, seed=1, hash_bits=20)
        assert collection.universe_size == 1 << 20
        assert collection.max_signature_size == 5


class TestClassification:
    def test_expected_categories(self):
        alice_texts, bob_texts = edited_corpus_pair(20, 60, 2, 2, 2, seed=1)
        alice = DocumentCollection(alice_texts, 3, seed=1)
        bob = DocumentCollection(bob_texts, 3, seed=1)
        classification = classify_documents(alice, bob)
        assert len(classification.exact_duplicates) == 16
        assert len(classification.near_duplicates) == 2
        assert len(classification.fresh) == 2

    def test_threshold_validation(self):
        collection = DocumentCollection(["a b c"], 2, seed=1)
        with pytest.raises(ParameterError):
            classify_documents(collection, collection, near_duplicate_threshold=0.0)


class TestReconciliation:
    def test_end_to_end(self):
        alice_texts, bob_texts = edited_corpus_pair(25, 50, 2, 2, 1, seed=2)
        alice = DocumentCollection(alice_texts, 3, seed=2, signature_size=24)
        bob = DocumentCollection(bob_texts, 3, seed=2, signature_size=24)
        result = reconcile(
            alice, bob, protocol="documents", difference_bound=2 * 24, seed=3,
            differing_children_bound=8,
        )
        assert result.success
        assert result.recovered == alice.to_sets_of_sets()

    def test_parameter_mismatch_rejected(self):
        alice = DocumentCollection(["a b c"], 2, seed=1)
        bob = DocumentCollection(["a b c"], 3, seed=1)
        with pytest.raises(ParameterError):
            reconcile(alice, bob, protocol="documents", difference_bound=4, seed=1)

    def test_identical_collections(self):
        texts = synthetic_corpus(15, 40, seed=4)
        alice = DocumentCollection(texts, 3, seed=4, signature_size=16)
        bob = DocumentCollection(list(texts), 3, seed=4, signature_size=16)
        result = reconcile(alice, bob, protocol="documents", difference_bound=8, seed=5)
        assert result.success and result.recovered == alice.to_sets_of_sets()


class TestCorpusWorkload:
    def test_corpus_shapes(self):
        corpus = synthetic_corpus(10, 30, seed=6)
        assert len(corpus) == 10
        assert all(len(doc.split()) == 30 for doc in corpus)

    def test_edited_pair_counts(self):
        alice, bob = edited_corpus_pair(20, 30, 3, 2, 4, seed=7)
        assert len(alice) == 20
        assert len(bob) == 16

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            synthetic_corpus(0, 10, seed=1)
        with pytest.raises(ParameterError):
            edited_corpus_pair(5, 10, 4, 1, 3, seed=1)
