#!/usr/bin/env python
"""Synchronising two binary relational databases (Section 1 application).

Two replicas of a binary table (labeled columns, unlabeled rows) have drifted
by a few flipped bits.  The rows are sets of column indices, so the whole
table is a set of sets and the paper's protocols transfer just the
difference.

Run with::

    python examples/database_sync.py
"""

from repro import reconcile
from repro.protocols.parties.applications import db_parties
from repro.protocols.session import run_session
from repro.workloads import flipped_table_pair

SEED = 7
NUM_ROWS = 120
NUM_COLUMNS = 96
DENSITY = 0.45
NUM_FLIPS = 10


def main() -> None:
    alice, bob, flips = flipped_table_pair(
        NUM_ROWS, NUM_COLUMNS, DENSITY, NUM_FLIPS, SEED, max_rows_touched=5
    )
    print(f"Primary replica:  {alice.num_rows} rows x {alice.num_columns} columns")
    print(f"Stale replica:    {bob.num_rows} rows, {flips} bits flipped")
    print(f"Exact bit difference (min-cost row matching): {alice.bit_difference(bob)}\n")

    # ``protocol="db"`` runs the cascading protocol (Theorem 3.7) on the row
    # sets; the naive protocol under a table is a choice of the party builder.
    runs = {
        "naive": lambda: run_session(
            *db_parties(alice, bob, NUM_FLIPS + 2, SEED, protocol="naive")
        ),
        "cascading": lambda: reconcile(
            alice, bob, protocol="db", difference_bound=NUM_FLIPS + 2, seed=SEED
        ),
    }
    for protocol, run in runs.items():
        result = run()
        status = "recovered" if result.success and result.recovered == alice else "FAILED"
        print(
            f"{protocol:10s}: {status}, {result.total_bits} bits "
            f"({result.total_bits / 8:.0f} bytes), {result.num_rounds} round(s)"
        )

    # Sending the raw table would cost rows * columns bits.
    print(f"\nShipping the full table would cost {NUM_ROWS * NUM_COLUMNS} bits.")


if __name__ == "__main__":
    main()
