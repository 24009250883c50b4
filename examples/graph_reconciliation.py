#!/usr/bin/env python
"""Unlabeled random graph reconciliation (Section 5).

A base graph is drawn from G(n, p); Alice and Bob each hold a slightly
perturbed copy, and Alice's copy is privately relabeled, so the parties must
first agree on a vertex correspondence before they can exchange edge
differences.  The degree-ordering scheme (Theorem 5.2) does this by
reconciling vertex signatures as a set of sets.

Laptop-scale note: Theorem 5.3's separation guarantee is asymptotic, so this
example plants the separation property into the base graph (see
``planted_separated_graph``); DESIGN.md documents the substitution.

Run with::

    python examples/graph_reconciliation.py
"""

from repro import reconcile
from repro.graphs.random_graphs import planted_separated_graph, reconciliation_pair

SEED = 5
NUM_VERTICES = 500
EDGE_PROBABILITY = 0.5
NUM_TOP = 48          # the scheme parameter h
NUM_CHANGES = 2       # d


def main() -> None:
    base = planted_separated_graph(
        NUM_VERTICES, EDGE_PROBABILITY, NUM_TOP, degree_gap=NUM_CHANGES + 1, seed=SEED
    )
    pair = reconciliation_pair(
        NUM_VERTICES, EDGE_PROBABILITY, NUM_CHANGES, seed=SEED + 1, base=base
    )
    print(
        f"Base graph: n={base.num_vertices}, |E|={base.num_edges}; "
        f"{NUM_CHANGES} edge changes split between the parties; "
        "Alice's copy privately relabeled."
    )

    result = reconcile(
        pair.alice, pair.bob, protocol="degree_order", difference_bound=NUM_CHANGES,
        num_top=NUM_TOP, seed=SEED + 2,
    )
    if not result.success:
        print(f"Protocol failed ({result.details.get('failure')}); "
              "this happens when the instance is not separated -- rerun with another seed.")
        return
    recovered = result.recovered
    same_degrees = sorted(recovered.degree_sequence()) == sorted(pair.alice.degree_sequence())
    print(
        f"Recovered a graph with |E|={recovered.num_edges} "
        f"(degree sequence matches Alice's: {same_degrees})."
    )
    print(
        f"Communication: {result.total_bits} bits in {result.num_rounds} round(s) "
        f"(signatures {result.details['signature_bits']} bits, "
        f"edges {result.details['edge_bits']} bits)."
    )
    full = NUM_VERTICES * (NUM_VERTICES - 1) // 2
    print(f"Shipping the whole adjacency matrix would cost {full} bits.")


if __name__ == "__main__":
    main()
