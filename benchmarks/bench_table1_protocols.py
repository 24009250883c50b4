"""E1 -- Table 1: the four SSRK protocols in the dense binary-database regime.

Paper claim (Table 1, Section 3.5): with ``h = Theta(u)``, ``n = Theta(s u)``
and small ``d``, the naive protocol pays ``~ d * u`` bits per differing child
while the structured protocols pay only poly(d, log u); the multi-round
protocol is the cheapest but needs 3 rounds, and the one-round protocols get
progressively cheaper as more structure is exploited.
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
from repro.bench.runner import summarize
from repro.bench.table1 import Table1Config, run_table1
from repro import reconcile
from repro.workloads import table1_instance

CONFIG = Table1Config(
    universe_size=2048, num_children=64, num_changes=8, children_touched=4, repeats=1
)


def _instance(seed=CONFIG.seed):
    return table1_instance(
        CONFIG.universe_size,
        CONFIG.num_children,
        CONFIG.num_changes,
        seed,
        max_children_touched=CONFIG.children_touched,
    )


@pytest.fixture(scope="module")
def instance():
    return _instance()


def test_table1_report(benchmark):
    """Regenerate the whole Table 1 comparison and print it."""
    measurements = run_once(benchmark, run_table1, CONFIG)
    print()
    print(format_table(summarize(measurements), "Table 1 (empirical, dense regime)"))
    by_name = {m.name: m for m in measurements}
    naive = by_name["naive (Thm 3.3)"]
    multiround = by_name["multi-round (Thm 3.9)"]
    flat = by_name["IBLT of IBLTs (Thm 3.5)"]
    # Shape checks from the paper's table: naive is the most expensive in
    # communication when u is large; the multi-round protocol is the cheapest
    # but uses 3 rounds instead of 1.
    assert naive.median_bits > multiround.median_bits
    assert naive.median_bits > flat.median_bits
    assert multiround.median_rounds == 3
    assert flat.median_rounds == 1


def test_naive_protocol(benchmark, instance):
    result = run_once(
        benchmark, reconcile, instance.alice, instance.bob, protocol="naive",
        difference_bound=2 * instance.differing_children,
        universe_size=instance.universe_size, max_child_size=instance.max_child_size,
        seed=CONFIG.seed,
    )
    assert result.success


def test_iblt_of_iblts_protocol(benchmark, instance):
    result = run_once(
        benchmark, reconcile, instance.alice, instance.bob, protocol="iblt_of_iblts",
        difference_bound=instance.planted_difference, universe_size=instance.universe_size,
        seed=CONFIG.seed,
    )
    assert result.success


def test_cascading_protocol(benchmark, instance):
    result = run_once(
        benchmark, reconcile, instance.alice, instance.bob, protocol="cascading",
        difference_bound=instance.planted_difference, universe_size=instance.universe_size,
        max_child_size=instance.max_child_size, seed=CONFIG.seed,
    )
    assert result.success


def test_multiround_protocol(benchmark, instance):
    result = run_once(
        benchmark, reconcile, instance.alice, instance.bob, protocol="multiround",
        difference_bound=instance.planted_difference, universe_size=instance.universe_size,
        max_child_size=instance.max_child_size, seed=CONFIG.seed,
    )
    assert result.success


def main() -> None:
    args = benchmark_parser(
        "E1: the four SSRK protocols in the dense binary-database regime"
    ).parse_args()
    config = Table1Config(
        universe_size=CONFIG.universe_size,
        num_children=CONFIG.num_children,
        num_changes=CONFIG.num_changes,
        children_touched=CONFIG.children_touched,
        repeats=CONFIG.repeats,
        seed=args.seed,
    )
    rows = summarize(run_table1(config))
    print(format_table(rows, "Table 1 (empirical, dense regime)"))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_table1_protocols",
            description="Table 1 empirically: naive, IBLT-of-IBLTs, cascading "
            "and multi-round protocols in the dense binary-database regime",
            config=benchmark_config(
                args.seed,
                universe_size=config.universe_size,
                num_children=config.num_children,
                num_changes=config.num_changes,
                children_touched=config.children_touched,
                repeats=config.repeats,
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
