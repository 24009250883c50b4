#!/usr/bin/env python
"""Rooted-forest reconciliation (Section 6, Theorem 6.1).

Alice and Bob hold rooted forests that differ by a few directed edge
insertions/deletions.  Vertex signatures (hashed AHU labels) turn the forest
into a multiset of multisets, which the set-of-sets machinery reconciles;
Bob then rebuilds a forest isomorphic to Alice's.

Run with::

    python examples/forest_reconciliation.py
"""

from repro import reconcile
from repro.graphs import forest_canonical_form
from repro.workloads import forest_instance

SEED = 11
NUM_VERTICES = 150
NUM_EDITS = 4
MAX_DEPTH = 5


def main() -> None:
    instance = forest_instance(NUM_VERTICES, NUM_EDITS, SEED, max_depth=MAX_DEPTH)
    alice, bob = instance.alice, instance.bob
    print(
        f"Alice's forest: {alice.num_vertices} vertices, {len(alice.roots())} trees, "
        f"depth {alice.max_depth}."
    )
    print(f"Bob's forest differs by {instance.num_edits} edge edits.\n")

    result = reconcile(
        alice, bob, protocol="forest", difference_bound=instance.num_edits,
        max_depth=instance.max_depth, seed=SEED,
    )
    if not result.success:
        print(f"Protocol failed ({result.details.get('failure')}).")
        return
    isomorphic = forest_canonical_form(result.recovered) == forest_canonical_form(alice)
    print(
        f"Bob rebuilt a forest isomorphic to Alice's: {isomorphic} "
        f"({result.total_bits} bits, {result.num_rounds} round(s))."
    )
    raw = NUM_VERTICES * (NUM_VERTICES.bit_length())
    print(
        f"Shipping the parent array explicitly would cost about {raw} bits.\n"
        "Note: the protocol's cost depends only on d and the forest depth, not on n,\n"
        "so explicit transfer wins for small forests and loses for large ones\n"
        "(see benchmarks/bench_forest.py for the scaling curve)."
    )


if __name__ == "__main__":
    main()
