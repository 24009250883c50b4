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
from itertools import chain, combinations
from operator import or_
from typing import Any, Collection, Iterable

import numpy as _np

from repro.core.setsofsets.types import FlatSetOfSets
from repro.errors import ParameterError
from repro.graphs.graph import Graph, _rows_of
from repro.iblt.multi import FlatChildren


# ---------------------------------------------------------------------------
# Degree-ordering scheme (Definition 5.1)
# ---------------------------------------------------------------------------


def degree_sorted_vertices(graph: Graph) -> list[int]:
    """Vertices sorted by decreasing degree (ties broken by vertex id)."""
    degrees = _np.array(graph.degree_sequence(), dtype=_np.int64)
    return _np.argsort(-degrees, kind="stable").tolist()


def degree_order_matrix(graph: Graph, num_top: int) -> tuple[list[int], list[int], Any]:
    """The degree-ordering signatures as one bit matrix.

    Returns
    -------
    (top_vertices, others, matrix):
        ``top_vertices`` is the list of the ``num_top`` highest-degree
        vertices and ``others`` the rest, both in degree order.  ``matrix``
        is the ``(len(others), num_top)`` ``bool`` matrix whose row ``i`` is
        the paper's ``sig(others[i])``: bit ``j`` is set when ``others[i]``
        is adjacent to ``top_vertices[j]``.
    """
    if num_top < 0 or num_top > graph.num_vertices:
        raise ParameterError("num_top must lie in [0, num_vertices]")
    ordered = degree_sorted_vertices(graph)
    top_vertices, others = ordered[:num_top], ordered[num_top:]
    return top_vertices, others, graph.anchor_matrix(top_vertices, others)


def degree_order_signatures(
    graph: Graph, num_top: int
) -> tuple[list[int], dict[int, frozenset[int]]]:
    """:func:`degree_order_matrix` with each signature read as a set.

    Returns
    -------
    (top_vertices, signatures):
        ``top_vertices`` is the list of the ``num_top`` highest-degree
        vertices (in degree order).  ``signatures[v]``, for every other
        vertex ``v`` (in degree order), is the subset of ``{0, ...,
        num_top-1}`` recording which top vertices ``v`` is adjacent to.
    """
    top_vertices, others, matrix = degree_order_matrix(graph, num_top)
    return top_vertices, dict(zip(others, signature_sets(matrix)))


def signature_sets(matrix: Any) -> list[frozenset[int]]:
    """Each row of a signature matrix as the set of its set columns."""
    _, columns = _np.nonzero(matrix)  # row-major: grouped by row, ascending
    flat = columns.tolist()
    stops = _np.cumsum(_np.count_nonzero(matrix, axis=1)).tolist()
    return [frozenset(flat[start:stop]) for start, stop in zip([0, *stops], stops)]


def signature_batch(matrix: Any, order: Any) -> FlatSetOfSets:
    """The rows of a signature matrix as a parent set in flat form, straight
    from ``np.nonzero``: in ``order`` (the matrix's :func:`signature_order`),
    equal rows collapsed (as ``SetOfSets(signature_sets(matrix))`` collapses
    them)."""
    ordered = matrix[order]
    distinct = _np.ones(len(ordered), dtype=bool)
    distinct[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ordered = ordered[distinct]
    _, columns = _np.nonzero(ordered)  # row-major: grouped by row, ascending
    return FlatSetOfSets.from_arrays(
        columns.astype(_np.uint64), _np.count_nonzero(ordered, axis=1).astype(_np.int64)
    )


def signature_matrix(signatures: Iterable[Collection[int]] | FlatChildren, num_top: int) -> Any:
    """The inverse of :func:`signature_sets`: a ``(count, num_top)`` ``bool``
    matrix, row ``i`` set at the members of the ``i``-th signature (of a
    flat batch's ``i``-th row).

    Raises :class:`ParameterError` for a member outside ``[0, num_top)``:
    recovered signatures come from a peer.
    """
    if isinstance(signatures, FlatChildren):
        sizes = signatures.sizes
        # A member past 64 bits is out of range too.
        members = _np.array([-1]) if signatures.elements is None else signatures.elements
    else:
        rows = list(signatures)
        sizes = _np.fromiter(map(len, rows), dtype=_np.int64, count=len(rows))
        try:
            members = _np.fromiter(chain.from_iterable(rows), dtype=_np.int64, count=sizes.sum())
        except OverflowError:  # a member past int64 is out of range too
            members = _np.array([-1])
    if members.size and (int(members.min()) < 0 or int(members.max()) >= num_top):
        raise ParameterError(f"signature member out of range [0, {num_top})")
    matrix = _np.zeros((len(sizes), num_top), dtype=bool)
    matrix[_np.repeat(_np.arange(len(sizes)), sizes), members] = True
    return matrix


#: Base-3 digits per ``int64`` sort key in :func:`signature_order`: 3**39 < 2**63.
_DIGITS_PER_KEY = 39


def signature_order(matrix: Any) -> Any:
    """The order of a signature matrix's rows by their sorted members,
    lexicographically: the stable order of ``sorted(key=sorted)`` over the
    rows' sets.

    Column ``i`` of a row reads 1 for a member, 2 for a non-member below the
    row's largest member and 0 above it.  Where two rows first differ, the
    row with the member there sorts first unless the other row has ended
    (it is then a prefix, and sorts first): exactly the comparison of the
    sorted member lists.  The digits, 39 columns to a base-3 ``int64``, are
    the keys of one stable ``np.lexsort``.
    """
    num_rows, width = matrix.shape
    # A member at or after each column: members read 2 - 1.
    reach = _np.logical_or.accumulate(matrix[:, ::-1], axis=1)[:, ::-1]
    digits = 2 * reach.astype(_np.int64) - matrix
    keys = [
        digits[:, start : start + _DIGITS_PER_KEY]
        @ 3 ** _np.arange(min(_DIGITS_PER_KEY, width - start) - 1, -1, -1, dtype=_np.int64)
        for start in range(0, width, _DIGITS_PER_KEY)
    ]
    return _np.lexsort(keys[::-1]) if keys else _np.arange(num_rows)


def signature_mask(signature: Iterable[int]) -> int:
    """A signature as a Python-int bitmask: bit ``i`` is set iff ``i`` is a member.

    The Hamming distance of two signatures is then ``(a ^ b).bit_count()``,
    for any ``num_top`` (Python ints do not stop at 64 bits).  A signature
    matrix packs to the same masks, one per row, in one ``_rows_of`` call.
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
    masks = _rows_of(degree_order_matrix(graph, num_top)[2])
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
