"""A peer's verified edge keys need not be the edges of a simple graph.

Alice's edge IBLT and its verification hash are over whatever key set she
chooses.  The key width rounds ``n*n`` up to a power of two, so a self-loop
``u*n + u`` and a key ``>= n*n`` both survive the wire; Bob must report a
failed session, not raise out of ``run_session``.
"""

import dataclasses

import pytest

import repro
from repro.graphs import Graph
from repro.protocols.parties import graphs as graph_parties

from protocol_fixtures import protocol_instances


def hostile_alice(monkeypatch, key):
    """Make Alice's edge message describe her edge set plus ``key``."""
    honest = graph_parties.ibf_alice

    def ibf_alice(source, difference_bound, **kwargs):
        source = dataclasses.replace(source, items=source.items | {key})
        return honest(source, difference_bound, **kwargs)

    monkeypatch.setattr(graph_parties, "ibf_alice", ibf_alice)


def run_with_equal_graphs(protocol, key, monkeypatch):
    # Bob holds Alice's graph: the extra key is the whole difference, so the
    # edge IBLT peels and verifies and only the keys themselves are wrong.
    alice, _, kwargs = protocol_instances()[protocol]
    hostile_alice(monkeypatch, key(alice.num_vertices))
    return repro.reconcile(alice, alice.copy(), protocol=protocol, seed=3, **kwargs)


PROTOCOLS = ["labeled", "degree_order", "degree_neighborhood"]
KEYS = {
    "self-loop": lambda n: 2 * n + 2,
    "past-the-universe": lambda n: n * n,
}


@pytest.mark.parametrize("key", KEYS.values(), ids=KEYS.keys())
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_non_edge_keys_fail_the_session(protocol, key, monkeypatch):
    result = run_with_equal_graphs(protocol, key, monkeypatch)
    assert not result.success
    assert result.recovered is None
    assert result.details["failure"] == "edge-keys"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_honest_extra_edge_still_succeeds(protocol, monkeypatch):
    # The same harness with a key that is an edge: the failure above is the
    # key's doing, not the harness's.
    alice, _, _ = protocol_instances()[protocol]
    u, v = next(
        (u, v)
        for u in range(alice.num_vertices)
        for v in range(u + 1, alice.num_vertices)
        if not alice.has_edge(u, v)
    )
    result = run_with_equal_graphs(protocol, lambda n: u * n + v, monkeypatch)
    assert result.success
    assert isinstance(result.recovered, Graph)
    assert result.recovered.num_edges == alice.num_edges + 1
