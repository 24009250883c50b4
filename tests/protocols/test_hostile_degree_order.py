"""A peer's verified degree-ordering signatures need not fit Bob's matrix.

In Theorem 5.2 Bob matches his non-top vertices to the signatures Alice's
cascade delivers, and those are whatever children she chose.  Her set may
hold more or fewer children than Bob has non-top vertices, and a level child
table keys elements at its key width, so at ``h = 30`` a child delivered
through one may hold 30 or 31.  Bob must report a labelled failure, not
raise out of ``run_session``: ``"conforming-match"`` for a set that does
not fit his matrix, and ``"child-outside-universe"`` for a member past
``h``, which the cascade's Bob refuses before the matching sees it.

Every forgery travels over the default session, so Bob decodes the bytes
with his own context.  The cheapest plan at ``h = 30`` is T* alone, whose
keys are ``h``-bit bitmaps that cannot carry a member past 29; the members
30 and 31 therefore ride the full cascade (Algorithm 2), whose level child
tables carry them at 5 bits, with both parties pinned to that plan.
"""

import pytest

import repro
from repro.graphs import Graph, gnp_random_graph
from repro.graphs.separation import degree_order_matrix, signature_batch, signature_order
from repro.protocols.parties import graphs as graph_parties
from repro.protocols.parties import setsofsets
from repro.protocols.parties.setsofsets import OUTSIDE_UNIVERSE, context_for

NUM_TOP = 30
DIFFERENCE_BOUND = 2


def victim(signature_set):
    return max(signature_set.children, key=lambda child: (len(child), sorted(child)))


def full_cascade(ctx, difference_bound):
    """Algorithm 2 in full: every level, T* only when ``d >= h``."""
    return setsofsets._cascade_candidates(ctx, difference_bound)[-1]


def run_with_equal_graphs(rewrite, monkeypatch, *, levels=False):
    """Alice's signature set rewritten; Bob holds her graph, so the rewrite
    is the whole difference and her cascade decodes and verifies.  Both
    parties keep the shared context; ``levels`` pins both to the full
    cascade."""
    alice = gnp_random_graph(100, 0.5, 4)
    honest = graph_parties.cascading_alice_known

    def cascading_alice_known(signature_set, difference_bound, ctx):
        return honest(rewrite(signature_set), difference_bound, ctx)

    monkeypatch.setattr(graph_parties, "cascading_alice_known", cascading_alice_known)
    if levels:
        monkeypatch.setattr(setsofsets, "_cascade_plan", full_cascade)
    result = repro.reconcile(
        alice, alice.copy(), protocol="degree_order", seed=3,
        difference_bound=DIFFERENCE_BOUND, num_top=NUM_TOP,
    )
    return alice, result


def grown(member):
    return lambda s: s.replace_children([victim(s)], [victim(s) | {member}])


REWRITES = {
    "member-30": (grown(30), True, OUTSIDE_UNIVERSE),
    "member-31": (grown(31), True, OUTSIDE_UNIVERSE),
    "one-child-more": (
        lambda s: s.replace_children([], [frozenset(range(0, NUM_TOP, 2))]),
        False,
        "conforming-match",
    ),
    "one-child-fewer": (
        lambda s: s.replace_children([victim(s)], []), False, "conforming-match",
    ),
}


@pytest.mark.parametrize(
    ("rewrite", "levels", "failure"), REWRITES.values(), ids=REWRITES.keys()
)
def test_signatures_that_fit_no_matrix_fail_the_session(rewrite, levels, failure, monkeypatch):
    _, result = run_with_equal_graphs(rewrite, monkeypatch, levels=levels)
    assert not result.success
    assert result.recovered is None
    assert result.details["failure"] == failure


INSIDE = {
    "unchanged": (lambda s: s, False),
    "member-29": (grown(29), False),
    "unchanged-full-cascade": (lambda s: s, True),
    "member-29-full-cascade": (grown(29), True),
}


@pytest.mark.parametrize(("rewrite", "levels"), INSIDE.values(), ids=INSIDE.keys())
def test_signatures_inside_the_matrix_still_succeed(rewrite, levels, monkeypatch):
    # The same harness within [0, h), on either plan: the failures above are
    # the rewrite's doing, not the harness's.
    alice, result = run_with_equal_graphs(rewrite, monkeypatch, levels=levels)
    assert result.success
    assert isinstance(result.recovered, Graph)
    assert result.recovered.num_edges == alice.num_edges


def test_the_default_plan_cannot_carry_a_member_past_the_top():
    # Why the member-30/31 forgeries need the levels: T* alone keys each
    # child as an h-bit bitmap, so its cells hold members [0, h) only.
    _, _, matrix = degree_order_matrix(gnp_random_graph(100, 0.5, 4), NUM_TOP)
    signatures = signature_batch(matrix, signature_order(matrix))
    ctx = context_for(signatures, signatures, NUM_TOP, 3, max_child_size=NUM_TOP,
                      t_star_ladder=False)
    plan = setsofsets._cascade_plan(ctx, DIFFERENCE_BOUND)
    assert plan.num_levels == 0
    assert plan.explicit_scheme.uses_bitmap
    assert plan.t_star_params.key_bits == NUM_TOP
    assert full_cascade(ctx, DIFFERENCE_BOUND).num_levels >= 1
