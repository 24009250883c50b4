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

from typing import Any, Sequence

import numpy as _np

from repro.core.setsofsets import FlatSetOfSets, SetOfSets
from repro.errors import ParameterError
from repro.graphs.graph import _rows_of
from repro.graphs.separation import signature_matrix, signature_order


def canonical_labels(
    top_vertices: list[int], others: list[int], matrix: Any, order: Any
) -> Any:
    """Alice's canonical labeling as an array, ``labels[v]`` for vertex ``v``:
    degree rank for the top, then the others in signature order (``order``,
    the :func:`~repro.graphs.separation.signature_order` of ``matrix``, the
    :func:`~repro.graphs.separation.degree_order_matrix` rows).

    Raises :class:`ParameterError` when two signatures coincide (the graph is
    then not separated and the scheme does not apply).
    """
    ordered = matrix[order]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise ParameterError("duplicate vertex signatures: graph is not separated")
    num_top = len(top_vertices)
    labels = _np.empty(num_top + len(others), dtype=_np.intp)
    labels[top_vertices] = _np.arange(num_top)
    labels[_np.asarray(others, dtype=_np.intp)[order]] = _np.arange(num_top, len(labels))
    return labels


def _closest_rank(mask: int, alice_masks: list[int], difference_bound: int) -> int | None:
    """Rank of the unique closest Alice mask within ``difference_bound``, else ``None``."""
    distances = [(candidate ^ mask).bit_count() for candidate in alice_masks]
    closest = min(distances, default=None)
    if closest is None or closest > difference_bound or distances.count(closest) > 1:
        return None
    return distances.index(closest)


def _conforming_labels_for_bob(
    alice_signatures: SetOfSets | FlatSetOfSets,
    bob_others: Sequence[int],
    bob_matrix: Any,
    num_top: int,
    difference_bound: int,
) -> dict[int, int] | None:
    """Map each of Bob's non-top vertices to Alice's canonical label.

    ``bob_others`` and ``bob_matrix`` are Bob's
    :func:`~repro.graphs.separation.degree_order_matrix`.  A Bob vertex
    conforms to the *closest* Alice signature, which must lie within Hamming
    distance ``difference_bound`` (under full separation the closest
    signature is also the unique one within that distance); returns ``None``
    when a vertex has no close-enough signature, the closest is tied, two
    vertices claim the same signature, or one of Alice's recovered (peer
    chosen) signatures has a member outside ``[0, num_top)``.

    Both sides' signatures become masks in one pack of a bit matrix each, and
    Alice's are ranked in her canonical order.  Her signatures are distinct,
    so one equal to Bob's is at distance 0, closest and untied: a dict lookup
    settles all but the O(d) perturbed vertices, and only those scan Alice's
    signatures.
    """
    try:
        alice_matrix = signature_matrix(
            alice_signatures
            if isinstance(alice_signatures, FlatSetOfSets)
            else alice_signatures.children,
            num_top,
        )
    except ParameterError:
        return None
    alice_masks = _rows_of(alice_matrix[signature_order(alice_matrix)])
    rank_of_mask = {mask: rank for rank, mask in enumerate(alice_masks)}
    assigned: dict[int, int] = {}
    used: set[int] = set()
    for vertex, mask in zip(bob_others, _rows_of(bob_matrix)):
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
