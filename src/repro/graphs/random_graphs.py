"""Erdos-Renyi graphs and the paper's perturbation model (Section 5).

The random-graph reconciliation model: a base graph ``G ~ G(n, p)`` is drawn,
then Alice and Bob each obtain a copy perturbed by at most ``d/2`` edge
changes; additionally Alice's copy is relabeled by a private permutation (the
graphs are *unlabeled*, so nothing ties her vertex ids to Bob's).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.graphs.graph import Graph


def gnp_random_graph(num_vertices: int, edge_probability: float, seed: int) -> Graph:
    """Draw a graph from G(n, p).

    Edge indicators come from one ``numpy.random.default_rng(seed)`` stream
    over the upper triangle, so a seed fixes the graph on every machine, and
    generation stays fast for the few-thousand-vertex graphs used in the
    benchmarks.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ParameterError("edge_probability must lie in [0, 1]")
    if num_vertices < 2 or edge_probability == 0.0:
        return Graph(num_vertices)
    rng = np.random.default_rng(seed)
    row_indices, col_indices = np.triu_indices(num_vertices, k=1)
    mask = rng.random(row_indices.shape[0]) < edge_probability
    return Graph.from_edge_keys(
        num_vertices, row_indices[mask] * num_vertices + col_indices[mask]
    )


def perturb_edges(graph: Graph, num_changes: int, rng: random.Random) -> Graph:
    """Return a copy of ``graph`` with ``num_changes`` random edge toggles.

    Each change picks a uniformly random vertex pair and flips it, exactly
    the "edge additions or deletions" of the paper's model.  Changes always
    touch distinct pairs, so the edit distance to the input is exactly
    ``num_changes``.
    """
    if num_changes < 0:
        raise ParameterError("num_changes must be non-negative")
    n = graph.num_vertices
    max_pairs = n * (n - 1) // 2
    if num_changes > max_pairs:
        raise ParameterError("more changes requested than vertex pairs available")
    perturbed = graph.copy()
    touched: set[tuple[int, int]] = set()
    while len(touched) < num_changes:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in touched:
            continue
        touched.add(pair)
        perturbed.toggle_edge(*pair)
    return perturbed


def random_permutation(num_vertices: int, rng: random.Random) -> list[int]:
    """A uniformly random permutation of the vertex ids."""
    permutation = list(range(num_vertices))
    rng.shuffle(permutation)
    return permutation


@dataclass(frozen=True)
class ReconciliationPair:
    """A generated random-graph reconciliation instance.

    Attributes
    ----------
    base:
        The common base graph ``G``.
    alice, bob:
        The two perturbed copies; Alice's is additionally relabeled by
        ``alice_permutation`` (``alice_permutation[v]`` is Alice's name for
        base vertex ``v``).
    alice_permutation:
        The hidden relabeling (available to tests, never to the protocols).
    num_changes:
        Total number of edge changes applied across both copies (``<= d``).
    """

    base: Graph
    alice: Graph
    bob: Graph
    alice_permutation: list[int]
    num_changes: int


def reconciliation_pair(
    num_vertices: int,
    edge_probability: float,
    total_changes: int,
    seed: int,
    *,
    relabel_alice: bool = True,
    base: Graph | None = None,
) -> ReconciliationPair:
    """Generate the paper's Section 5 instance: base graph plus two perturbed copies."""
    rng = random.Random(seed)
    if base is None:
        base = gnp_random_graph(num_vertices, edge_probability, seed)
    alice_changes = total_changes // 2
    bob_changes = total_changes - alice_changes
    alice = perturb_edges(base, alice_changes, rng)
    bob = perturb_edges(base, bob_changes, rng)
    permutation = (
        random_permutation(num_vertices, rng) if relabel_alice else list(range(num_vertices))
    )
    alice = alice.relabel(permutation)
    return ReconciliationPair(base, alice, bob, permutation, total_changes)


def planted_separated_graph(
    num_vertices: int,
    edge_probability: float,
    num_top: int,
    degree_gap: int,
    seed: int,
) -> Graph:
    """A G(n, p) graph with ``num_top`` planted high-degree anchor vertices.

    Theorem 5.3 guarantees (h, d+1, 2d+1)-separation only for asymptotically
    large ``n``; at laptop scale vanilla G(n, p) essentially never has the
    required degree gaps among its top vertices.  This generator *plants* the
    property (documented as a substitution in DESIGN.md): it draws G(n, p)
    and then adds random extra edges at the first ``num_top`` vertices until
    their degrees form a descending staircase with consecutive gaps of at
    least ``degree_gap`` above the rest of the graph.  The remainder of the
    graph -- and therefore the non-top signatures the degree-ordering scheme
    relies on -- stays an unmodified random graph.
    """
    if num_top <= 0 or num_top > num_vertices:
        raise ParameterError("num_top must lie in (0, num_vertices]")
    if degree_gap <= 0:
        raise ParameterError("degree_gap must be positive")
    graph = gnp_random_graph(num_vertices, edge_probability, seed)
    rng = random.Random(seed ^ 0x9E3779B9)
    non_anchors = list(range(num_top, num_vertices))
    # Boosting an anchor also raises the degree of the non-anchor endpoints,
    # which can push a non-anchor back into the top h; iterate until the
    # staircase of anchor degrees sits stably above every non-anchor.
    for _ in range(8):
        non_anchor_max = max(
            (graph.degree(v) for v in non_anchors), default=0
        )
        satisfied = True
        required = non_anchor_max
        for rank in range(num_top - 1, -1, -1):
            required += degree_gap
            if graph.degree(rank) < required:
                satisfied = False
                rng.shuffle(non_anchors)
                for other in non_anchors:
                    if graph.degree(rank) >= required:
                        break
                    if not graph.has_edge(rank, other):
                        graph.add_edge(rank, other)
            required = max(required, graph.degree(rank))
        if satisfied:
            break
    # Verify the staircase was actually achievable: with too many anchors or
    # too large a gap an anchor runs out of non-anchor endpoints to attach to
    # and the separation silently degrades, which would make downstream
    # protocol failures hard to interpret.
    ordered_degrees = sorted((graph.degree(v) for v in graph.vertices()), reverse=True)
    achieved = all(
        ordered_degrees[rank] - ordered_degrees[rank + 1] >= degree_gap
        for rank in range(num_top)
    )
    if not achieved:
        raise ParameterError(
            "could not plant the requested degree staircase; "
            "increase num_vertices or decrease num_top / degree_gap"
        )
    return graph
