"""E4 -- Theorem 2.3: characteristic-polynomial set reconciliation.

Paper claims: probability-1 success with O(d log u) bits, at the price of
interpolation time that grows polynomially (cubically) in d.  The benchmark
confirms the always-succeeds behaviour, the near-information-theoretic
communication (smaller than the IBLT protocol's), and the super-linear time
growth in d.
"""

import random
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

import pytest

from conftest import run_once
from repro.bench.cli import benchmark_config, benchmark_parser
from repro.bench.reporting import format_table, write_benchmark_record
from repro import reconcile

UNIVERSE = 1 << 20
# The last d is large enough that the cubic interpolation time dominates the
# IBLT's linear pass by a wide margin, keeping the timing crossover assertion
# robust to scheduler noise.
DIFFERENCES = (4, 16, 48, 96)
SET_SIZE = 600
TITLE = "E4: CPI vs IBLT set reconciliation"


def _instance(size, difference, seed):
    rng = random.Random(seed)
    alice = set(rng.sample(range(UNIVERSE), size))
    bob = set(alice)
    for element in rng.sample(sorted(alice), difference // 2):
        bob.discard(element)
    while len(alice ^ bob) < difference:
        bob.add(rng.randrange(UNIVERSE))
    return alice, bob


@pytest.mark.parametrize("difference", [4, 16, 48])
def test_cpi_reconciliation(benchmark, difference):
    alice, bob = _instance(600, difference, seed=difference)
    result = run_once(
        benchmark, reconcile, alice, bob, protocol="cpi", difference_bound=difference,
        universe_size=UNIVERSE, seed=1,
    )
    assert result.success and result.recovered == alice


def sweep(seed=0):
    """One row per d: bits and wall-clock for both set-reconciliation paths."""
    rows = []
    for difference in DIFFERENCES:
        alice, bob = _instance(SET_SIZE, difference, seed=seed + difference)
        start = time.perf_counter()
        cpi = reconcile(
            alice, bob, protocol="cpi", difference_bound=difference, universe_size=UNIVERSE,
            seed=seed + 1,
        )
        cpi_time = time.perf_counter() - start
        start = time.perf_counter()
        iblt = reconcile(
            alice, bob, protocol="ibf", difference_bound=difference, universe_size=UNIVERSE,
            seed=seed + 1,
        )
        iblt_time = time.perf_counter() - start
        rows.append(
            {
                "d": difference,
                "cpi bits": cpi.total_bits,
                "iblt bits": iblt.total_bits,
                "cpi sec": round(cpi_time, 4),
                "iblt sec": round(iblt_time, 4),
                "both ok": cpi.success and iblt.success,
            }
        )
    return rows


def test_cpi_vs_iblt_tradeoff(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["both ok"] for row in rows)
    # Communication: CPI is close to d log u and beats the IBLT's constant.
    assert all(row["cpi bits"] < row["iblt bits"] for row in rows)
    # Computation: CPI grows super-linearly in d and loses at the largest d.
    assert rows[-1]["cpi sec"] > rows[-1]["iblt sec"]


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_cpi_setrecon",
            description="Characteristic-polynomial vs IBLT set reconciliation: "
            "bits and wall-clock as the difference d grows",
            config=benchmark_config(
                args.seed, universe=UNIVERSE, set_size=SET_SIZE, differences=list(DIFFERENCES)
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
