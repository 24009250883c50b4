"""Binary relational database reconciliation (Section 1 application).

A relational table of binary data whose columns are labeled but whose rows
are not is exactly a set of sets: each row is the set of columns in which it
has a 1.  "Reconciling two databases in which a total of d bits have been
flipped corresponds exactly to our sets of sets problem."  This package
provides the table type and its conversion to/from the set-of-sets
representation; ``repro.reconcile(alice, bob, protocol="db", ...)`` runs the
protocol (``db_parties`` in :mod:`repro.protocols.parties.applications`).
"""

from repro.db.table import BinaryTable

__all__ = ["BinaryTable"]
