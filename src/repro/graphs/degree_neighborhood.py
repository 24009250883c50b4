"""Random graph reconciliation via the degree-neighborhood scheme (Theorem 5.6).

For sparser graphs than the degree-ordering scheme can handle, a vertex's
signature is ``D_v``: the multiset of the degrees (at most ``max_degree``,
the paper's ``pn``) of its neighbors.  When all degree neighborhoods are
``(pn, 4d+1)``-disjoint (Definition 5.4; Theorem 5.5 shows this holds with
high probability for the stated range of ``p`` and ``d``), conforming
vertices have signatures within multiset distance ``2d`` and non-conforming
ones are at least ``2d+1`` apart, so Bob can again adopt Alice's labeling
after reconciling the *set of multisets* of signatures.

Costs roughly ``O(pn)`` times more communication than the degree-ordering
scheme (every edge change perturbs ~``2pn`` signatures by one element), which
is exactly the trade-off Theorem 5.6 describes.

This module holds the signature encoding and the change bound; the protocol
is ``degree_neighborhood_parties`` in :mod:`repro.protocols.parties.graphs`,
and :func:`reconcile_degree_neighborhood` is a thin alias running it.
"""

from __future__ import annotations

from collections import Counter

from repro.comm import ReconciliationResult
from repro.core.setrecon.multiset import decode_multiset, encode_multiset
from repro.graphs.graph import Graph


def _encode_signature(signature: Counter, multiplicity_bound: int) -> frozenset[int]:
    """Encode a degree multiset as a set of (degree, count) pair keys."""
    return frozenset(encode_multiset(dict(signature), multiplicity_bound))


def _decode_signature(encoded: frozenset[int], multiplicity_bound: int) -> Counter:
    return Counter(decode_multiset(set(encoded), multiplicity_bound))


def signature_change_bound(difference_bound: int, max_degree: int) -> int:
    """Bound on encoded-element changes caused by ``difference_bound`` edge changes.

    Each edge change alters the degree of its two endpoints; every neighbor
    of an endpoint sees one degree value replaced in its signature (at most 4
    encoded ``(degree, count)`` pairs), and the endpoints themselves gain or
    lose one entry.  With endpoint degrees capped at roughly ``max_degree``
    this is at most ``8 * max_degree + 8`` encoded changes per edge change.
    """
    return max(1, difference_bound) * (8 * max(1, max_degree) + 8)


def reconcile_degree_neighborhood(
    alice: Graph,
    bob: Graph,
    difference_bound: int,
    max_degree: int,
    seed: int,
) -> ReconciliationResult:
    """One-round reconciliation with degree-neighborhood signatures (Theorem 5.6).

    Thin wrapper over the party state machines of
    :mod:`repro.protocols.parties.graphs` (in-memory session).

    Parameters
    ----------
    alice, bob:
        The two unlabeled graphs (equal vertex counts).
    difference_bound:
        Bound ``d`` on the number of differing edges.
    max_degree:
        The signature truncation threshold (the paper's ``pn``); both parties
        must use the same value.
    seed:
        Shared seed.
    """
    from repro.protocols.parties.graphs import degree_neighborhood_parties
    from repro.protocols.session import run_session

    alice_party, bob_party = degree_neighborhood_parties(
        alice, bob, difference_bound, max_degree, seed
    )
    return run_session(alice_party, bob_party)
