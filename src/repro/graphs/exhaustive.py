"""Exhaustive (unbounded-computation) graph reconciliation (Theorem 4.3).

Alice sends a random evaluation of the polynomial whose coefficients are the
bits of her graph's canonical form.  Bob enumerates every graph within ``d``
edge changes of his own, canonicalises each, and adopts the first whose
polynomial evaluation matches.  Communication is the information-theoretic
optimum ``O(d log n)`` bits (Theorem 4.4 proves the matching lower bound);
computation is astronomically expensive, so the implementation is gated to
very small graphs and serves as the exact reference the efficient Section 5
schemes are compared against.

This module holds the canonical-form evaluation and the candidate
enumeration; the protocol is ``exhaustive_parties`` in
:mod:`repro.protocols.parties.graphs`, run by
``repro.reconcile(alice, bob, protocol="exhaustive", ...)``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from repro.graphs.graph import Graph
from repro.graphs.isomorphism import (
    MAX_BRUTE_FORCE_VERTICES as MAX_BRUTE_FORCE_VERTICES,  # re-export: parties import it from here
    canonical_form_small,
)


def _canonical_evaluation(graph: Graph, point: int, prime: int) -> int:
    bits = canonical_form_small(graph)
    value = 0
    power = 1
    for bit in bits:
        if bit:
            value = (value + power) % prime
        power = (power * point) % prime
    return value


def _graphs_within_changes(graph: Graph, max_changes: int) -> Iterator[Graph]:
    """Yield every graph obtained by toggling at most ``max_changes`` edge slots."""
    n = graph.num_vertices
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for num_changes in range(max_changes + 1):
        for flipped in combinations(slots, num_changes):
            candidate = graph.copy()
            for u, v in flipped:
                candidate.toggle_edge(u, v)
            yield candidate
