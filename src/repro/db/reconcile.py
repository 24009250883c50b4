"""End-to-end reconciliation of binary relational tables.

The protocol is ``db_parties`` in
:mod:`repro.protocols.parties.applications`; :func:`reconcile_tables` is a
thin alias running it over an in-memory session.
"""

from __future__ import annotations

from repro.comm import ReconciliationResult
from repro.db.table import BinaryTable


def reconcile_tables(
    alice: BinaryTable,
    bob: BinaryTable,
    flipped_bits_bound: int,
    seed: int,
    *,
    protocol: str = "cascading",
    backend: str | None = None,
) -> ReconciliationResult:
    """One-way reconciliation of two binary tables (Bob recovers Alice's).

    Parameters
    ----------
    alice, bob:
        Tables over the same column list.
    flipped_bits_bound:
        Upper bound ``d`` on the number of flipped bits separating the tables
        under the minimum-difference row matching.
    seed:
        Shared seed.
    protocol:
        Which set-of-sets protocol to use: ``"cascading"`` (Theorem 3.7,
        default) or ``"naive"`` (Theorem 3.3).
    backend:
        IBLT cell-store backend (see :mod:`repro.config`).

    Returns
    -------
    ReconciliationResult
        ``recovered`` is a :class:`BinaryTable` equal to Alice's.
    """
    from repro.protocols.parties.applications import db_parties
    from repro.protocols.session import run_session

    alice_party, bob_party = db_parties(
        alice, bob, flipped_bits_bound, seed, protocol=protocol, backend=backend
    )
    return run_session(alice_party, bob_party)
