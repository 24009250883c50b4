"""A peer's verified degree-ordering signatures need not fit Bob's matrix.

In Theorem 5.2 Bob matches his non-top vertices to the signatures Alice's
cascade delivers, and those are whatever children she chose.  A level child
table decodes elements up to its key width's power of two, so at ``h = 30``
a child may hold 30 or 31; and her set may hold more or fewer children than
Bob has non-top vertices.  Bob must report ``"conforming-match"``, not raise
out of ``run_session``.
"""

import dataclasses

import pytest

import repro
from repro.graphs import Graph, gnp_random_graph
from repro.protocols.parties import graphs as graph_parties

NUM_TOP = 30


def victim(signature_set):
    return max(signature_set.children, key=lambda child: (len(child), sorted(child)))


def run_with_equal_graphs(rewrite, monkeypatch):
    """Alice's signature set rewritten; Bob holds her graph, so the rewrite
    is the whole difference and her cascade decodes and verifies.  Her
    cascade is sized for the universe 32: the same 5-bit key width as 30,
    so Bob reads it with his own context."""
    alice = gnp_random_graph(100, 0.5, 4)
    honest = graph_parties.cascading_alice_known

    def cascading_alice_known(signature_set, difference_bound, ctx):
        return honest(
            rewrite(signature_set), difference_bound,
            dataclasses.replace(ctx, universe_size=32),
        )

    monkeypatch.setattr(graph_parties, "cascading_alice_known", cascading_alice_known)
    result = repro.reconcile(
        alice, alice.copy(), protocol="degree_order", seed=3,
        difference_bound=2, num_top=NUM_TOP,
    )
    return alice, result


REWRITES = {
    "member-30": lambda s: s.replace_children([victim(s)], [victim(s) | {30}]),
    "member-31": lambda s: s.replace_children([victim(s)], [victim(s) | {31}]),
    "one-child-more": lambda s: s.replace_children([], [frozenset(range(0, NUM_TOP, 2))]),
    "one-child-fewer": lambda s: s.replace_children([victim(s)], []),
}


@pytest.mark.parametrize("rewrite", REWRITES.values(), ids=REWRITES.keys())
def test_signatures_that_fit_no_matrix_fail_the_session(rewrite, monkeypatch):
    _, result = run_with_equal_graphs(rewrite, monkeypatch)
    assert not result.success
    assert result.recovered is None
    assert result.details["failure"] == "conforming-match"


@pytest.mark.parametrize(
    "rewrite",
    [lambda s: s, lambda s: s.replace_children([victim(s)], [victim(s) | {29}])],
    ids=["unchanged", "member-29"],
)
def test_signatures_inside_the_matrix_still_succeed(rewrite, monkeypatch):
    # The same harness within [0, h): the failures above are the rewrite's
    # doing, not the widened universe's.
    alice, result = run_with_equal_graphs(rewrite, monkeypatch)
    assert result.success
    assert isinstance(result.recovered, Graph)
    assert result.recovered.num_edges == alice.num_edges
