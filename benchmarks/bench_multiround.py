"""E7 -- Theorems 3.9 / 3.10: the multi-round protocol.

Paper claim: spending 3 rounds (4 when d is unknown) buys communication of
roughly O(d log u + d_hat log s + d_hat log h) -- the lowest of all the SSRK
protocols -- because payloads are sized per child from the estimated
per-child differences, with the characteristic-polynomial path handling the
very small ones.
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
from repro.workloads import table1_instance

UNIVERSE = 2048
NUM_CHILDREN = 64
DIFFERENCES = (4, 8, 16)
TITLE = "E7: multi-round protocol vs one-round flat protocol"


def test_multiround_known_d(benchmark):
    instance = table1_instance(UNIVERSE, NUM_CHILDREN, 8, seed=1, max_children_touched=4)
    result = run_once(
        benchmark, reconcile, instance.alice, instance.bob, protocol="multiround",
        difference_bound=instance.planted_difference, universe_size=UNIVERSE,
        max_child_size=instance.max_child_size, seed=7,
    )
    assert result.success and result.num_rounds == 3


def test_multiround_unknown_d(benchmark):
    instance = table1_instance(UNIVERSE, NUM_CHILDREN, 8, seed=2, max_children_touched=4)
    result = run_once(
        benchmark, reconcile, instance.alice, instance.bob, protocol="multiround",
        difference_bound=None, universe_size=UNIVERSE,
        max_child_size=instance.max_child_size, seed=9,
    )
    assert result.success and result.num_rounds == 4


def sweep(seed=0):
    rows = []
    for difference in DIFFERENCES:
        instance = table1_instance(
            UNIVERSE, NUM_CHILDREN, difference, seed=seed + difference,
            max_children_touched=max(1, difference // 2),
        )
        known = reconcile(
            instance.alice, instance.bob, protocol="multiround",
            difference_bound=instance.planted_difference, universe_size=UNIVERSE,
            max_child_size=instance.max_child_size, seed=seed + 3,
        )
        unknown = reconcile(
            instance.alice, instance.bob, protocol="multiround", difference_bound=None,
            universe_size=UNIVERSE, max_child_size=instance.max_child_size, seed=seed + 3,
        )
        flat = reconcile(
            instance.alice, instance.bob, protocol="iblt_of_iblts",
            difference_bound=instance.planted_difference, universe_size=UNIVERSE,
            seed=seed + 3,
        )
        rows.append(
            {
                "d": difference,
                "known bits (3 rounds)": known.total_bits,
                "unknown bits (4 rounds)": unknown.total_bits,
                "one-round flat bits": flat.total_bits,
                "all ok": known.success and unknown.success and flat.success,
            }
        )
    return rows


def test_multiround_report(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["all ok"] for row in rows)
    # The extra rounds buy strictly less communication than the flat protocol.
    assert all(row["known bits (3 rounds)"] < row["one-round flat bits"] for row in rows)


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_multiround",
            description="Multi-round protocol (known and unknown d) vs the "
            "one-round flat IBLT-of-IBLTs protocol across differences",
            config=benchmark_config(
                args.seed,
                universe=UNIVERSE,
                num_children=NUM_CHILDREN,
                differences=list(DIFFERENCES),
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
