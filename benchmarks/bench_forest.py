"""E10 -- Theorem 6.1: forest reconciliation.

Paper claim: one round and O(d sigma log(d sigma) log n) bits reconcile two
rooted forests differing by d edge edits, with computation essentially linear
in n.  The key shape: communication depends on d and the depth sigma, *not*
on the forest size, so it stays flat as n grows while explicit transfer grows
linearly.
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
from repro.graphs import forest_canonical_form
from repro.workloads import forest_instance

FOREST_SIZES = (100, 200, 400)
TITLE = "E10: forest reconciliation, bits vs n (d and depth fixed)"


@pytest.mark.parametrize("num_vertices", [100, 400])
def test_forest_reconciliation(benchmark, num_vertices):
    instance = forest_instance(num_vertices, 3, seed=num_vertices, max_depth=4)
    result = run_once(
        benchmark, reconcile, instance.alice, instance.bob, protocol="forest",
        difference_bound=max(1, instance.num_edits), max_depth=instance.max_depth, seed=7,
    )
    assert result.success
    assert forest_canonical_form(result.recovered) == forest_canonical_form(instance.alice)


def sweep(seed=0):
    rows = []
    for num_vertices in FOREST_SIZES:
        instance = forest_instance(num_vertices, 3, seed=seed + num_vertices + 1, max_depth=4)
        result = reconcile(
            instance.alice, instance.bob, protocol="forest",
            difference_bound=max(1, instance.num_edits), max_depth=instance.max_depth,
            seed=seed + 8,
        )
        rows.append(
            {
                "n": num_vertices,
                "bits": result.total_bits,
                "explicit parent-array bits": num_vertices * num_vertices.bit_length(),
                "success": result.success,
            }
        )
    return rows


def test_forest_bits_independent_of_size(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["success"] for row in rows)
    # Communication is governed by d * sigma, not by the forest size: growing
    # n by 4x must grow the cost sublinearly (the residual growth comes from
    # wider child multisets in larger random forests, i.e. larger h, not n
    # itself -- see EXPERIMENTS.md).
    size_growth = rows[-1]["n"] / rows[0]["n"]
    bits_growth = rows[-1]["bits"] / rows[0]["bits"]
    assert bits_growth < size_growth


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_forest",
            description="Rooted-forest reconciliation: total bits vs forest "
            "size with the edit count and depth held fixed",
            config=benchmark_config(args.seed, forest_sizes=list(FOREST_SIZES)),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
