"""E14 -- naive vs structured protocols: who wins where.

Paper claim (Theorem 3.3 vs Theorems 3.5/3.9): the naive protocol pays
``min(h log u, u)`` bits per differing child -- unbeatable when children are
tiny, hopeless when children are dense (h = Theta(u)).  The benchmark sweeps
the child size and shows the crossover.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

from conftest import run_once
from repro.bench.cli import benchmark_config, benchmark_parser
from repro.bench.reporting import format_table, write_benchmark_record
from repro import reconcile
from repro.workloads import sets_of_sets_instance

UNIVERSE = 1024
NUM_CHILDREN = 48
NUM_CHANGES = 6
CHILD_SIZES = (4, 32, 256, 512)
TITLE = "E14: naive vs structured protocols across child sizes"


def sweep(seed=0):
    rows = []
    for child_size in CHILD_SIZES:
        instance = sets_of_sets_instance(
            NUM_CHILDREN, child_size, UNIVERSE, NUM_CHANGES,
            seed=seed + child_size, max_children_touched=3,
        )
        naive = reconcile(
            instance.alice, instance.bob, protocol="naive",
            difference_bound=2 * instance.differing_children, universe_size=UNIVERSE,
            max_child_size=instance.max_child_size, seed=seed + 5,
        )
        structured = reconcile(
            instance.alice, instance.bob, protocol="multiround",
            difference_bound=instance.planted_difference, universe_size=UNIVERSE,
            max_child_size=instance.max_child_size, seed=seed + 5,
        )
        rows.append(
            {
                "h (child size)": child_size,
                "naive bits": naive.total_bits,
                "multi-round bits": structured.total_bits,
                "winner": "naive" if naive.total_bits < structured.total_bits else "structured",
                "both ok": naive.success and structured.success,
            }
        )
    return rows


def test_naive_vs_structured_crossover(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["both ok"] for row in rows)
    # Small children: naive wins.  Dense children (h = Theta(u)): structured wins.
    assert rows[0]["winner"] == "naive"
    assert rows[-1]["winner"] == "structured"


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_naive_crossover",
            description="Naive vs multi-round protocols as the child size "
            "grows: the crossover between tiny and dense children",
            config=benchmark_config(
                args.seed,
                universe=UNIVERSE,
                num_children=NUM_CHILDREN,
                num_changes=NUM_CHANGES,
                child_sizes=list(CHILD_SIZES),
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
