"""Random graph reconciliation via the degree-ordering scheme (Theorem 5.2).

One round, for graphs that are ``(h, d+1, 2d+1)``-separated (Definition 5.1,
which ``G(n, p)`` satisfies with high probability in the regime of
Theorem 5.3):

1.  Both parties sort their vertices by degree.  The top ``h`` vertices are
    identified by their degree rank; every other vertex's *signature* is the
    subset of the top ``h`` it is adjacent to.
2.  Alice sends (a) a set-of-sets reconciliation message for her signature
    set (each signature is a subset of ``[h]``; at most ``d`` total element
    changes separate the two signature sets) and (b) a labeled-edge
    reconciliation message for her graph under her canonical labeling.
3.  Bob recovers Alice's signatures, matches each of his vertices to the
    unique Alice signature within Hamming distance ``d`` (separation makes
    non-conforming signatures at least ``d+1`` away), adopts Alice's
    labeling, and finishes with plain labeled set reconciliation of the
    edges.

``recovered`` is Alice's graph expressed in the canonical labeling (i.e. a
graph isomorphic to hers that Bob can now hold); ``details`` carries the
conforming labeling Bob computed for his own vertex ids.

This module holds the local labeling transforms; the protocol is
``degree_order_parties`` in :mod:`repro.protocols.parties.graphs`, run by
``repro.reconcile(alice, bob, protocol="degree_order", ...)``.
"""

from __future__ import annotations

from repro.core.setsofsets import SetOfSets
from repro.errors import ParameterError
from repro.graphs.separation import signature_mask


def canonical_labeling_from_signatures(
    top_vertices: list[int], signatures: dict[int, frozenset[int]]
) -> dict[int, int]:
    """Alice's canonical labeling: degree rank for the top, signature order below.

    Raises :class:`ParameterError` when two signatures coincide (the graph is
    then not separated and the scheme does not apply).
    """
    labeling = {vertex: rank for rank, vertex in enumerate(top_vertices)}
    ordered = sorted(signatures.items(), key=lambda item: sorted(item[1]))
    seen: set[frozenset[int]] = set()
    for offset, (vertex, signature) in enumerate(ordered):
        if signature in seen:
            raise ParameterError("duplicate vertex signatures: graph is not separated")
        seen.add(signature)
        labeling[vertex] = len(top_vertices) + offset
    return labeling


def _closest_rank(mask: int, alice_masks: list[int], difference_bound: int) -> int | None:
    """Rank of the unique closest Alice mask within ``difference_bound``, else ``None``."""
    distances = [(candidate ^ mask).bit_count() for candidate in alice_masks]
    closest = min(distances, default=None)
    if closest is None or closest > difference_bound or distances.count(closest) > 1:
        return None
    return distances.index(closest)


def _conforming_labels_for_bob(
    alice_signatures: SetOfSets,
    bob_signatures: dict[int, frozenset[int]],
    num_top: int,
    difference_bound: int,
) -> dict[int, int] | None:
    """Map each of Bob's non-top vertices to Alice's canonical label.

    A Bob vertex conforms to the *closest* Alice signature, which must lie
    within Hamming distance ``difference_bound`` (under full separation the
    closest signature is also the unique one within that distance); returns
    ``None`` when a vertex has no close-enough signature, the closest is
    tied, or two vertices claim the same signature.

    Alice's signatures are distinct, so one equal to Bob's is at distance 0,
    closest and untied: a dict lookup settles all but the O(d) perturbed
    vertices, and only those scan Alice's signatures.
    """
    alice_masks = [
        signature_mask(signature) for signature in alice_signatures.sorted_children()
    ]
    rank_of_mask = {mask: rank for rank, mask in enumerate(alice_masks)}
    assigned: dict[int, int] = {}
    used: set[int] = set()
    for vertex, signature in bob_signatures.items():
        mask = signature_mask(signature)
        rank = rank_of_mask.get(mask)
        if rank is None:
            rank = _closest_rank(mask, alice_masks, difference_bound)
            if rank is None:
                return None
        if rank in used:
            return None
        used.add(rank)
        assigned[vertex] = num_top + rank
    return assigned
