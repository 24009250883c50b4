"""Multiset reconciliation (Section 3.4).

The paper's reduction: replace a multiset by the set of ``(element, count)``
pairs ("if an element x occurs in the multiset k times, then (x, k) is an
element of the set"), reconcile that set, and read the multiset back.  The
universe grows from ``u`` to ``u * n`` -- reflected here by the pair
encoding's larger key width -- and every bound otherwise carries over.

Multisets are represented as ``dict[int, int]`` mapping element to a positive
multiplicity.
"""

from __future__ import annotations

from typing import Mapping

from repro.comm import ReconciliationResult
from repro.errors import ParameterError


def encode_multiset(multiset: Mapping[int, int], max_multiplicity: int) -> set[int]:
    """Encode a multiset as the set of ``element * (max_multiplicity+1) + count``.

    Parameters
    ----------
    multiset:
        Mapping from element to multiplicity (every multiplicity positive).
    max_multiplicity:
        Upper bound on any multiplicity (the paper's ``n``); both parties
        must agree on it because it fixes the pair encoding.
    """
    if max_multiplicity <= 0:
        raise ParameterError("max_multiplicity must be positive")
    encoded = set()
    base = max_multiplicity + 1
    for element, count in multiset.items():
        if count <= 0:
            raise ParameterError("multiset multiplicities must be positive")
        if count > max_multiplicity:
            raise ParameterError(
                f"multiplicity {count} exceeds max_multiplicity {max_multiplicity}"
            )
        encoded.add(element * base + count)
    return encoded


def decode_multiset(encoded: set[int], max_multiplicity: int) -> dict[int, int]:
    """Inverse of :func:`encode_multiset`."""
    base = max_multiplicity + 1
    multiset: dict[int, int] = {}
    for value in encoded:
        element, count = divmod(value, base)
        if count == 0 or element in multiset:
            raise ParameterError("encoded value is not a valid multiset encoding")
        multiset[element] = count
    return multiset


def multiset_symmetric_difference(
    first: Mapping[int, int], second: Mapping[int, int]
) -> int:
    """Total number of element insertions/deletions separating two multisets."""
    elements = set(first) | set(second)
    return sum(abs(first.get(element, 0) - second.get(element, 0)) for element in elements)


def reconcile_multiset_known_d(
    alice: Mapping[int, int],
    bob: Mapping[int, int],
    difference_bound: int,
    universe_size: int,
    max_multiplicity: int,
    seed: int,
) -> ReconciliationResult:
    """One-round IBLT reconciliation of multisets with a known bound.

    The bound counts differing ``(element, count)`` pairs; note that a single
    multiplicity change touches two pairs (the old and the new), so callers
    following the paper's ``d`` (number of element additions/deletions)
    should pass ``2 * d`` to be safe -- the convenience wrapper in the
    sets-of-sets layer does exactly that.
    """
    from repro.protocols.parties.setrecon import SetReconContext, ibf_parties
    from repro.protocols.session import run_session

    pair_universe = universe_size * (max_multiplicity + 1) + max_multiplicity + 1
    alice_party, bob_party = ibf_parties(
        encode_multiset(alice, max_multiplicity),
        encode_multiset(bob, max_multiplicity),
        difference_bound,
        SetReconContext(pair_universe, seed),
    )
    result = run_session(alice_party, bob_party)
    if result.success:
        result.recovered = decode_multiset(result.recovered, max_multiplicity)
    return result
