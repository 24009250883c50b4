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
run by ``repro.reconcile(alice, bob, protocol="degree_neighborhood", ...)``.
"""

from __future__ import annotations

from collections import Counter

from repro.core.setrecon.multiset import decode_multiset, encode_multiset


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
