"""The degree-ordering signatures as one bit matrix per party (Theorem 5.2).

Each party keeps its signatures as the ``(n - h) x h`` matrix of
``degree_order_matrix`` and derives the rest from it: the sets for the
cascade, the masks for matching, and the canonical order.  Each transform
is checked here against the per-vertex Python it replaced: the canonical
order against ``sorted(key=sorted)``, the masks against ``signature_mask``.
"""

import random

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graphs import Graph, gnp_random_graph
from repro.graphs.degree_order import canonical_labels
from repro.graphs.graph import _rows_of
from repro.graphs.separation import (
    degree_order_matrix,
    degree_order_signatures,
    signature_mask,
    signature_matrix,
    signature_order,
    signature_sets,
)

NUM_TOPS = [1, 7, 64, 65, 130]


def random_signatures(rng, num_top, duplicates):
    """Random signatures of every density, the empty signature and a prefix
    pair ({0} and {0, 5}, or {} and {0} at one column), optionally with
    repeats, shuffled."""
    signatures = [frozenset(), frozenset({0}), frozenset({0, min(5, num_top - 1)})]
    for _ in range(rng.randrange(0, 60)):
        density = rng.random()
        signatures.append(frozenset(i for i in range(num_top) if rng.random() < density))
    if duplicates:
        signatures += rng.sample(signatures, 3)
    rng.shuffle(signatures)
    return signatures


@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "repeats"])
@pytest.mark.parametrize("num_top", NUM_TOPS)
def test_order_is_sorted_by_sorted_members(num_top, duplicates):
    rng = random.Random(num_top)
    for _ in range(40):
        signatures = dict(enumerate(random_signatures(rng, num_top, duplicates), start=100))
        order = signature_order(signature_matrix(signatures.values(), num_top))
        vertices = list(signatures)
        expected = sorted(signatures.items(), key=lambda item: sorted(item[1]))
        assert [vertices[i] for i in order] == [vertex for vertex, _ in expected]


@pytest.mark.parametrize("num_top", NUM_TOPS)
def test_sets_and_masks_of_the_matrix(num_top):
    rng = random.Random(num_top + 1)
    signatures = random_signatures(rng, num_top, duplicates=True)
    matrix = signature_matrix(signatures, num_top)
    assert matrix.shape == (len(signatures), num_top) and matrix.dtype == bool
    assert signature_sets(matrix) == signatures
    assert _rows_of(matrix) == [signature_mask(signature) for signature in signatures]


def test_empty_and_zero_width_matrices():
    assert signature_matrix([], 4).shape == (0, 4)
    assert signature_order(np.zeros((0, 4), dtype=bool)).tolist() == []
    assert signature_order(np.zeros((3, 0), dtype=bool)).tolist() == [0, 1, 2]
    assert signature_sets(np.zeros((2, 0), dtype=bool)) == [frozenset(), frozenset()]


@pytest.mark.parametrize("member", [-1, 30, 31, 2**63, 2**70])
def test_signature_matrix_rejects_members_outside_the_top(member):
    with pytest.raises(ParameterError):
        signature_matrix([{0, 1}, {2, member}], 30)


def separated(n, num_top):
    """The first G(n, 1/2) draw whose signatures are distinct."""
    for seed in range(100):
        graph = gnp_random_graph(n, 0.5, seed)
        _, signatures = degree_order_signatures(graph, num_top)
        if len(set(signatures.values())) == len(signatures):
            return graph
    raise AssertionError("no separated draw")  # pragma: no cover


@pytest.mark.parametrize("n, num_top", [(1, 1), (9, 4), (64, 16), (120, 65)])
def test_canonical_labels_equal_the_sorted_reference(n, num_top):
    graph = separated(n, num_top)
    top, signatures = degree_order_signatures(graph, num_top)
    ordered = sorted(signatures.items(), key=lambda item: sorted(item[1]))
    expected = {vertex: rank for rank, vertex in enumerate(top)}
    expected.update({vertex: num_top + rank for rank, (vertex, _) in enumerate(ordered)})
    top_vertices, others, matrix = degree_order_matrix(graph, num_top)
    labels = canonical_labels(top_vertices, others, matrix, signature_order(matrix))
    assert labels.tolist() == [expected[v] for v in range(n)]


def test_canonical_labels_refuse_equal_signatures():
    # 1 and 2 both see only the top vertex 0.
    top_vertices, others, matrix = degree_order_matrix(Graph(3, [(0, 1), (0, 2)]), 1)
    with pytest.raises(ParameterError):
        canonical_labels(top_vertices, others, matrix, signature_order(matrix))
