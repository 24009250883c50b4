#!/usr/bin/env python
"""Reconciling two document collections via shingles (Section 1 application).

Each document is summarised by the set of hashes of its 3-word shingles; a
collection is then a set of sets.  Reconciling the signature sets tells Bob
exactly which of Alice's documents he is missing or holds only stale versions
of, without shipping the documents themselves.

Run with::

    python examples/document_collections.py
"""

from repro import reconcile
from repro.documents import DocumentCollection, classify_documents
from repro.workloads import edited_corpus_pair

SEED = 99
NUM_DOCS = 200
WORDS_PER_DOC = 80
NUM_EDITED = 4
EDITS_PER_DOC = 3
NUM_FRESH = 3
SIGNATURE_SIZE = 48


def main() -> None:
    alice_texts, bob_texts = edited_corpus_pair(
        NUM_DOCS, WORDS_PER_DOC, NUM_EDITED, EDITS_PER_DOC, NUM_FRESH, SEED
    )
    alice = DocumentCollection(
        alice_texts, shingle_size=3, seed=SEED, signature_size=SIGNATURE_SIZE
    )
    bob = DocumentCollection(
        bob_texts, shingle_size=3, seed=SEED, signature_size=SIGNATURE_SIZE
    )
    print(f"Alice holds {len(alice)} documents, Bob holds {len(bob)}.")

    classification = classify_documents(alice, bob)
    print(
        f"Of Alice's documents: {len(classification.exact_duplicates)} exact duplicates, "
        f"{len(classification.near_duplicates)} near duplicates, "
        f"{len(classification.fresh)} fresh.\n"
    )

    # Per-document signatures differ by at most twice the signature size (a
    # completely fresh document); only a handful of documents differ at all.
    per_child_bound = 2 * SIGNATURE_SIZE
    differing_children = 2 * (NUM_EDITED + NUM_FRESH) + 2
    result = reconcile(
        alice, bob, protocol="documents", difference_bound=per_child_bound, seed=SEED,
        differing_children_bound=differing_children,
    )
    recovered_ok = result.success and result.recovered == alice.to_sets_of_sets()
    print(
        f"Signature reconciliation: success={recovered_ok}, "
        f"{result.total_bits} bits, {result.num_rounds} round(s)."
    )
    raw_bits = sum(len(sig) for sig in alice.signatures) * alice.hash_bits
    print(f"Shipping every signature explicitly would cost {raw_bits} bits.")


if __name__ == "__main__":
    main()
