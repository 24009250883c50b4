"""Signature schemes and their robustness properties (Section 5).

Two vertex-signature schemes are used to align unlabeled random graphs:

* **Degree ordering** (Section 5.1, after Babai-Erdos-Selkow): sort vertices
  by degree; the ``h`` highest-degree vertices are identified by their degree
  rank, every other vertex by the subset of those ``h`` vertices it is
  adjacent to.  Robust when the graph is ``(h, a, b)``-separated
  (Definition 5.1).
* **Degree neighborhood** (Section 5.2, after Czajka-Pandurangan): a vertex's
  signature is the multiset of its neighbors' degrees, truncated at ``m``.
  Robust when all degree neighborhoods are ``(m, k)``-disjoint
  (Definition 5.4).

This module computes both kinds of signatures and checks both robustness
properties (used by Theorems 5.3 and 5.5's experiments).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable

from repro.errors import ParameterError
from repro.graphs.graph import Graph


# ---------------------------------------------------------------------------
# Degree-ordering scheme (Definition 5.1)
# ---------------------------------------------------------------------------


def degree_sorted_vertices(graph: Graph) -> list[int]:
    """Vertices sorted by decreasing degree (ties broken by vertex id)."""
    degrees = graph.degree_sequence()
    return sorted(graph.vertices(), key=lambda v: (-degrees[v], v))


def degree_order_signatures(
    graph: Graph, num_top: int
) -> tuple[list[int], dict[int, frozenset[int]]]:
    """Compute the degree-ordering signatures.

    Returns
    -------
    (top_vertices, signatures):
        ``top_vertices`` is the list of the ``num_top`` highest-degree
        vertices (in degree order).  ``signatures[v]``, for every other
        vertex ``v``, is the subset of ``{0, ..., num_top-1}`` recording which
        top vertices ``v`` is adjacent to (the paper's ``sig(v)`` read as a
        set rather than a bit string).
    """
    if num_top < 0 or num_top > graph.num_vertices:
        raise ParameterError("num_top must lie in [0, num_vertices]")
    ordered = degree_sorted_vertices(graph)
    top_vertices = ordered[:num_top]
    others = ordered[num_top:]
    signatures = dict(zip(others, graph.neighbors_among(top_vertices, others)))
    return top_vertices, signatures


def signature_mask(signature: Iterable[int]) -> int:
    """A signature as a Python-int bitmask: bit ``i`` is set iff ``i`` is a member.

    The Hamming distance of two signatures is then ``(a ^ b).bit_count()``,
    for any ``num_top`` (Python ints do not stop at 64 bits).
    """
    return reduce(or_, map((1).__lshift__, signature), 0)


def is_degree_separated(graph: Graph, num_top: int, degree_gap: int, signature_gap: int) -> bool:
    """Check Definition 5.1: the graph is ``(h, a, b)``-separated.

    * the top ``h`` degrees are pairwise separated by at least ``a``;
    * the signatures of all remaining vertices are pairwise at Hamming
      distance at least ``b``.
    """
    ordered = degree_sorted_vertices(graph)
    degrees = [graph.degree(v) for v in ordered]
    for index in range(min(num_top, len(ordered) - 1)):
        if degrees[index] - degrees[index + 1] < degree_gap:
            return False
    _, signatures = degree_order_signatures(graph, num_top)
    masks = [signature_mask(signature) for signature in signatures.values()]
    return all(
        (first ^ second).bit_count() >= signature_gap
        for first, second in combinations(masks, 2)
    )


# ---------------------------------------------------------------------------
# Degree-neighborhood scheme (Definition 5.4)
# ---------------------------------------------------------------------------


def degree_neighborhood_signatures(graph: Graph, max_degree: int) -> dict[int, Counter]:
    """The multiset ``D_v`` of degrees (at most ``max_degree``) of ``v``'s neighbors."""
    if max_degree < 0:
        raise ParameterError("max_degree must be non-negative")
    degrees = graph.degree_sequence()
    vertices = graph.vertices()
    signatures: dict[int, Counter] = {}
    for vertex, neighbors in zip(vertices, graph.neighbors_among(vertices, vertices)):
        counter: Counter = Counter()
        for neighbor in neighbors:
            if degrees[neighbor] <= max_degree:
                counter[degrees[neighbor]] += 1
        signatures[vertex] = counter
    return signatures


def multiset_mask(signature: Counter, stride: int) -> int:
    """A degree multiset in unary, as a :func:`signature_mask`.

    Value ``k`` with count ``c <= stride`` sets bits ``k*stride .. k*stride +
    c - 1``, so two masks differ in ``|c - c'|`` bits per value and
    ``(a ^ b).bit_count()`` is ``|D_u xor D_v|``,
    :func:`~repro.core.setrecon.multiset.multiset_symmetric_difference`.
    """
    return signature_mask(
        value * stride + copy
        for value, count in signature.items()
        for copy in range(count)
    )


def neighborhood_disjointness(graph: Graph, max_degree: int) -> int:
    """The smallest pairwise multiset difference among all vertex signatures.

    The graph's degree neighborhoods are ``(max_degree, k)``-disjoint exactly
    when this value is at least ``k`` (Definition 5.4).  Returns a large
    sentinel for graphs with fewer than two vertices.
    """
    num_vertices = graph.num_vertices
    if num_vertices < 2:
        return num_vertices * num_vertices
    # A degree value occurs fewer than n times among a vertex's neighbors.
    masks = [
        multiset_mask(signature, num_vertices)
        for signature in degree_neighborhood_signatures(graph, max_degree).values()
    ]
    return min((first ^ second).bit_count() for first, second in combinations(masks, 2))


def are_neighborhoods_disjoint(graph: Graph, max_degree: int, min_difference: int) -> bool:
    """Check Definition 5.4: all degree neighborhoods ``(max_degree, min_difference)``-disjoint."""
    return neighborhood_disjointness(graph, max_degree) >= min_difference
