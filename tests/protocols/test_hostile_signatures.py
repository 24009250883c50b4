"""A peer's verified signature children need not be multiset encodings.

The degree-neighborhood scheme (Theorem 5.6) sends each vertex's degree
multiset as a set of ``degree * (n + 1) + count`` keys.  Alice's cascade and
its parent hash are over whatever children she chooses: a pair with count 0,
or two pairs for one degree, fits the pair universe and verifies.  Bob must
report a failed session, not raise out of ``run_session``.
"""

import pytest

import repro
from repro.graphs import Graph
from repro.protocols.parties import graphs as graph_parties

from protocol_fixtures import protocol_instances


def zero_count(child, base):
    first = min(child)
    return child - {first} | {first - first % base}


def two_pairs_for_one_degree(child, base):
    first, second = sorted(child)[:2]
    other_count = (first % base) % (base - 1) + 1
    return child - {second} | {first - first % base + other_count}


def one_more_neighbor(child, base):
    # Still a multiset encoding: the control for the harness below.
    last = max(child)
    assert last % base < base - 1
    return child - {last} | {last + 1}


def run_with_equal_graphs(corrupt, monkeypatch):
    """Alice's signature set with one child rewritten; Bob holds her graph, so
    that child is the whole difference and her cascade decodes and verifies."""
    alice, _, kwargs = protocol_instances()["degree_neighborhood"]
    honest = graph_parties.cascading_alice_known

    def cascading_alice_known(signature_set, change_bound, ctx):
        victim = max(signature_set.children, key=lambda child: (len(child), sorted(child)))
        corrupted = frozenset(corrupt(victim, alice.num_vertices + 1))
        assert corrupted != victim and len(corrupted) == len(victim)
        return honest(
            signature_set.replace_children([victim], [corrupted]), change_bound, ctx
        )

    monkeypatch.setattr(graph_parties, "cascading_alice_known", cascading_alice_known)
    return repro.reconcile(
        alice, alice.copy(), protocol="degree_neighborhood", seed=3, **kwargs
    )


@pytest.mark.parametrize("corrupt", [zero_count, two_pairs_for_one_degree])
def test_a_child_that_is_no_multiset_fails_the_session(corrupt, monkeypatch):
    result = run_with_equal_graphs(corrupt, monkeypatch)
    assert not result.success
    assert result.recovered is None
    assert result.details["failure"] == "signature-encoding"


def test_a_rewritten_child_that_is_a_multiset_still_succeeds(monkeypatch):
    alice, _, _ = protocol_instances()["degree_neighborhood"]
    result = run_with_equal_graphs(one_more_neighbor, monkeypatch)
    assert result.success
    assert isinstance(result.recovered, Graph)
    assert result.recovered.num_edges == alice.num_edges
