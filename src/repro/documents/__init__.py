"""Document-collection reconciliation via shingling (Section 1 application).

A document is summarised by the set of hashes of its ``k``-word shingles
(Broder's resemblance technique, reference [9] of the paper); a collection of
documents is then a set of sets.  When two collections share mostly-identical
documents with a few edited ones, the shingle sets differ in only a few
elements, so set-of-sets reconciliation transfers the collection difference
cheaply and identifies which documents are exact duplicates, near duplicates,
or entirely fresh.  ``repro.reconcile(alice, bob, protocol="documents", ...)``
runs the protocol; :func:`classify_documents` labels the result.
"""

from repro.documents.shingle import shingle_hashes, document_signature
from repro.documents.collection import DocumentCollection
from repro.documents.reconcile import classify_documents

__all__ = [
    "shingle_hashes",
    "document_signature",
    "DocumentCollection",
    "classify_documents",
]
