"""E5 -- Theorem 3.1 / Appendix A: set-difference estimator ablation.

Paper claim: the L0-sketch estimator reports the difference within a constant
factor while being an O(log u) factor *smaller* than the strata estimator of
[14] and faster to merge/query.  The benchmark measures the L0 estimate
against the true difference and the size of the frame one side sends (what
travels in an unknown-``d`` session), against the strata estimator's size in
closed form (it does not depend on the sets).
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
from repro.estimator import L0Estimator

TRUE_DIFFERENCES = (16, 128, 1024)
TITLE = "E5: set-difference estimators (accuracy and size)"

#: The strata estimator of [14] at its usual shape: 32 strata of 40 IBLT
#: cells, a cell being a 16-bit count, a 64-bit key and a 24-bit checksum.
STRATA_BITS = 32 * 40 * (16 + 64 + 24)


def _sides(true_difference, seed):
    """Alice's and Bob's one-sided estimators over a planted difference."""
    rng = random.Random(seed)
    shared = rng.sample(range(1 << 40), 4000)
    alice_only = rng.sample(range(1 << 40, 2 << 40), true_difference // 2)
    bob_only = rng.sample(range(2 << 40, 3 << 40), true_difference - true_difference // 2)
    alice = L0Estimator(31337)
    bob = L0Estimator(31337)
    alice.update_all(shared + alice_only, 1)
    bob.update_all(shared + bob_only, 2)
    return alice, bob


def test_estimator_build_and_query(benchmark):
    alice, bob = _sides(256, seed=1)
    estimate = run_once(benchmark, alice.merge(bob).query)
    assert 256 / 8 <= estimate <= 256 * 8


def sweep(seed=0):
    rows = []
    for true_d in TRUE_DIFFERENCES:
        alice, bob = _sides(true_d, seed=seed + true_d)
        rows.append(
            {
                "true d": true_d,
                "l0 estimate": alice.merge(bob).query(),
                # The merged sketch is never sent; Bob's one-sided frame is.
                "l0 bits": bob.size_bits,
                "strata bits": STRATA_BITS,
            }
        )
    return rows


def test_estimator_accuracy_and_size_report(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    for row in rows:
        assert row["true d"] / 8 <= row["l0 estimate"] <= row["true d"] * 8
        # The headline claim: the paper's estimator is much smaller.
        assert row["l0 bits"] * 10 < row["strata bits"]


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_estimators",
            description="L0-sketch set-difference estimator: estimate accuracy "
            "and frame size across true differences, against the strata size",
            config=benchmark_config(args.seed, true_differences=list(TRUE_DIFFERENCES)),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
