"""Reconciling two document collections and classifying their documents.

The paper sketches the application: "we would expect most documents to be
exact duplicates, some to be near-duplicates, and some to be fresh,
non-duplicate documents.  We could use the approach of Theorem 3.5 to find
near-duplicate and non-duplicate documents."  Here the signature sets are
reconciled with a set-of-sets protocol, after which
:func:`classify_documents` labels each of Alice's documents as an exact
duplicate, a near duplicate, or fresh relative to Bob's collection.

The protocol is ``documents_parties`` in
:mod:`repro.protocols.parties.applications`, run by
``repro.reconcile(alice, bob, protocol="documents", ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.documents.collection import DocumentCollection
from repro.errors import ParameterError


@dataclass
class DocumentClassification:
    """Outcome of comparing Alice's documents against Bob's collection."""

    exact_duplicates: list[int] = field(default_factory=list)
    near_duplicates: list[int] = field(default_factory=list)
    fresh: list[int] = field(default_factory=list)


def classify_documents(
    alice: DocumentCollection,
    bob: DocumentCollection,
    *,
    near_duplicate_threshold: float = 0.5,
) -> DocumentClassification:
    """Classify each of Alice's documents relative to Bob's collection.

    A document is an *exact duplicate* if some Bob document has an identical
    signature, a *near duplicate* if the best Jaccard similarity between
    signatures is at least ``near_duplicate_threshold``, and *fresh*
    otherwise.  Indices refer to ``alice.documents``.
    """
    if not 0.0 < near_duplicate_threshold <= 1.0:
        raise ParameterError("near_duplicate_threshold must be in (0, 1]")
    bob_signatures = bob.signatures
    bob_exact = set(bob_signatures)
    result = DocumentClassification()
    for index, signature in enumerate(alice.signatures):
        if signature in bob_exact:
            result.exact_duplicates.append(index)
            continue
        best = 0.0
        for other in bob_signatures:
            union = len(signature | other)
            if union == 0:
                continue
            best = max(best, len(signature & other) / union)
        if best >= near_duplicate_threshold:
            result.near_duplicates.append(index)
        else:
            result.fresh.append(index)
    return result
