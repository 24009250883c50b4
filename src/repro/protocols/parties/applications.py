"""Party state machines for the application protocols (databases, documents).

Both applications are transforms around a set-of-sets protocol: binary
relational tables become sets of row-sets (reconciled with cascading by
default), document collections become sets of shingle-signature sets
(reconciled with IBLT-of-IBLTs, the protocol the paper singles out for the
application).  This module is the only spelling of each protocol;
``repro.reconcile`` runs them as ``protocol="db"`` and
``protocol="documents"``, and ``db_parties(..., protocol="naive")`` is the
one way to put the naive protocol under a table.  Both builders forward their
``context_options`` to :func:`context_for`, so every
:class:`SetsOfSetsContext` field (``differing_children_bound``, ...)
reaches the underlying protocol.
"""

from __future__ import annotations

from typing import Any

from repro.db.table import BinaryTable
from repro.documents.collection import DocumentCollection
from repro.errors import ParameterError
from repro.hashing import derive_seed
from repro.protocols.party import PartyGenerator, PartyOutcome, PartyPair
from repro.protocols.parties.setsofsets import (
    cascading_alice_known,
    cascading_bob_known,
    context_for,
    iblt_of_iblts_alice_known,
    iblt_of_iblts_bob_known,
    naive_alice_known,
    naive_bob_known,
)


def db_parties(
    alice: BinaryTable,
    bob: BinaryTable,
    flipped_bits_bound: int,
    seed: int,
    *,
    protocol: str = "cascading",
    **context_options: Any,
) -> PartyPair:
    """Both parties for binary-table reconciliation (Bob recovers Alice's)."""
    if alice.columns != bob.columns:
        raise ParameterError("tables must share the same columns")
    if protocol not in ("cascading", "naive"):
        raise ParameterError(f"unknown protocol {protocol!r}")
    columns = alice.columns
    alice_sets = alice.to_sets_of_sets()
    bob_sets = bob.to_sets_of_sets()
    universe = alice.num_columns
    max_child = max(1, alice_sets.max_child_size, bob_sets.max_child_size)
    bound = max(1, flipped_bits_bound)
    ctx = context_for(
        alice_sets,
        bob_sets,
        universe,
        derive_seed(seed, "db"),
        max_child_size=max_child,
        **context_options,
    )

    def alice_party() -> PartyGenerator:
        if protocol == "naive":
            yield from naive_alice_known(alice_sets, bound, ctx)
        else:
            yield from cascading_alice_known(alice_sets, bound, ctx)
        return PartyOutcome(True)

    def bob_party() -> PartyGenerator:
        if protocol == "naive":
            outcome = yield from naive_bob_known(bob_sets, bound, ctx)
        else:
            outcome = yield from cascading_bob_known(bob_sets, bound, ctx)
        if outcome.success:
            outcome.recovered = BinaryTable.from_sets_of_sets(
                columns, outcome.recovered
            )
        return outcome

    return alice_party(), bob_party()


def documents_parties(
    alice: DocumentCollection,
    bob: DocumentCollection,
    shingle_difference_bound: int,
    seed: int,
    **context_options: Any,
) -> PartyPair:
    """Both parties for document-collection signature reconciliation.

    ``recovered`` is the :class:`SetOfSets` of Alice's document signatures,
    from which Bob learns exactly which signatures he is missing (he can then
    request the corresponding documents out of band).
    """
    if (
        alice.shingle_size != bob.shingle_size
        or alice.seed != bob.seed
        or alice.hash_bits != bob.hash_bits
    ):
        raise ParameterError("collections must share shingling parameters")
    alice_sets = alice.to_sets_of_sets()
    bob_sets = bob.to_sets_of_sets()
    bound = max(1, shingle_difference_bound)
    ctx = context_for(
        alice_sets,
        bob_sets,
        alice.universe_size,
        derive_seed(seed, "documents"),
        **context_options,
    )

    def alice_party() -> PartyGenerator:
        yield from iblt_of_iblts_alice_known(alice_sets, bound, ctx)
        return PartyOutcome(True)

    def bob_party() -> PartyGenerator:
        outcome = yield from iblt_of_iblts_bob_known(bob_sets, bound, ctx)
        return outcome

    return alice_party(), bob_party()
