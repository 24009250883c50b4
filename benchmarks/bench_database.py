"""E12 -- Section 1 application: binary relational database reconciliation.

The paper's motivating database scenario: two replicas of a binary table with
labeled columns and unlabeled rows, differing by d flipped bits.  The
benchmark measures communication against shipping the whole table and
compares the naive and cascading protocols.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

import pytest

from conftest import run_once
from repro.bench.cli import benchmark_config, benchmark_parser
from repro.bench.reporting import format_table, write_benchmark_record
from repro import reconcile
from repro.protocols.parties.applications import db_parties
from repro.protocols.session import run_session
from repro.workloads import flipped_table_pair

NUM_ROWS = 96
NUM_COLUMNS = 128
DENSITY = 0.5
NUM_FLIPS = 8
FLIP_COUNTS = (4, 8, 16)
TITLE = "E12: binary database reconciliation"


def _sync(alice, bob, bound, protocol):
    """``protocol="db"`` runs cascading; naive under a table is a party-builder choice."""
    if protocol == "naive":
        return run_session(*db_parties(alice, bob, bound, 11, protocol="naive"))
    return reconcile(alice, bob, protocol="db", difference_bound=bound, seed=11)


def sweep(seed=0):
    rows = []
    for flips in FLIP_COUNTS:
        alice, bob, _ = flipped_table_pair(
            NUM_ROWS, NUM_COLUMNS, DENSITY, flips, seed=seed + flips, max_rows_touched=flips // 2
        )
        naive = _sync(alice, bob, flips + 2, "naive")
        cascading = _sync(alice, bob, flips + 2, "cascading")
        rows.append(
            {
                "flipped bits": flips,
                "naive bits": naive.total_bits,
                "cascading bits": cascading.total_bits,
                "full table bits": NUM_ROWS * NUM_COLUMNS,
                "both ok": naive.success and cascading.success,
            }
        )
    return rows


@pytest.mark.parametrize("protocol", ["naive", "cascading"])
def test_database_reconciliation(benchmark, protocol):
    alice, bob, _ = flipped_table_pair(
        NUM_ROWS, NUM_COLUMNS, DENSITY, NUM_FLIPS, seed=3, max_rows_touched=4
    )
    result = run_once(benchmark, _sync, alice, bob, NUM_FLIPS + 2, protocol)
    assert result.success and result.recovered == alice


def test_database_report(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["both ok"] for row in rows)
    # Reconciling a handful of flipped bits must beat shipping the table.
    assert rows[0]["naive bits"] < rows[0]["full table bits"]


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_database",
            description="Binary relational table reconciliation (naive and "
            "cascading) vs shipping the whole table, as flipped bits grow",
            config=benchmark_config(
                args.seed,
                num_rows=NUM_ROWS,
                num_columns=NUM_COLUMNS,
                density=DENSITY,
                flip_counts=list(FLIP_COUNTS),
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
