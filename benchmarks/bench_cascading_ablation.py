"""E6 -- Theorem 3.5 vs Theorem 3.7: flat vs cascading IBLTs of IBLTs.

Paper claim: the flat protocol pays O(d_hat * d log u) bits (quadratic when
many children each change a little) while the cascading protocol pays only
O(d log(min(d,h)) log u); with the total change budget spread thinly over
many children the cascading protocol must eventually win as d grows.  The
benchmark sweeps d with ~2 changes per touched child and locates the
crossover.
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

UNIVERSE = 4096
NUM_CHILDREN = 128
CHILD_SIZE = 32
DIFFERENCES = (16, 48, 96)
TITLE = "E6: flat (Thm 3.5) vs cascading (Thm 3.7), bits vs d"


def sweep(seed=0):
    rows = []
    for difference in DIFFERENCES:
        instance = sets_of_sets_instance(
            NUM_CHILDREN,
            CHILD_SIZE,
            UNIVERSE,
            difference,
            seed=seed + difference,
            max_children_touched=max(1, difference // 2),
        )
        flat = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts",
            difference_bound=instance.planted_difference, universe_size=UNIVERSE,
            seed=seed + 1,
            differing_children_bound=min(instance.planted_difference, NUM_CHILDREN),
        )
        cascading = reconcile(
            instance.alice, instance.bob, protocol="cascading",
            difference_bound=instance.planted_difference, universe_size=UNIVERSE,
            max_child_size=instance.max_child_size, seed=seed + 1,
            differing_children_bound=min(instance.planted_difference, NUM_CHILDREN),
        )
        rows.append(
            {
                "d": difference,
                "flat bits": flat.total_bits,
                "cascading bits": cascading.total_bits,
                "flat ok": flat.success,
                "cascading ok": cascading.success,
            }
        )
    return rows


def test_cascading_vs_flat_crossover(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["flat ok"] and row["cascading ok"] for row in rows)
    # Shape check: the flat protocol's cost grows much faster (superlinearly)
    # than the cascading protocol's, and cascading wins at the largest d.
    flat_growth = rows[-1]["flat bits"] / rows[0]["flat bits"]
    cascading_growth = rows[-1]["cascading bits"] / rows[0]["cascading bits"]
    assert flat_growth > cascading_growth
    assert rows[-1]["cascading bits"] < rows[-1]["flat bits"]


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_cascading_ablation",
            description="Flat vs cascading IBLTs of IBLTs: total bits as the "
            "planted difference d grows with ~2 changes per touched child",
            config=benchmark_config(
                args.seed,
                universe=UNIVERSE,
                num_children=NUM_CHILDREN,
                child_size=CHILD_SIZE,
                differences=list(DIFFERENCES),
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
