"""E5 -- Theorem 3.1 / Appendix A: set-difference estimator ablation.

Paper claim: the L0-sketch estimator reports the difference within a constant
factor while being an O(log u) factor *smaller* than the strata estimator of
[14] and faster to merge/query.  The benchmark measures accuracy (ratio of
estimate to true difference) and the size of the frame one side sends (what
travels in an unknown-``d`` session) for both estimators, and for the
median-of-five-L0 amplification (the five replicas' frames back to back).
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
from repro.estimator import L0Estimator, MedianEstimator, StrataEstimator
from repro.hashing import derive_seed

TRUE_DIFFERENCES = (16, 128, 1024)
TITLE = "E5: set-difference estimators (accuracy and size)"


def _sides(factory, true_difference, seed):
    """Alice's and Bob's one-sided estimators over a planted difference."""
    rng = random.Random(seed)
    shared = rng.sample(range(1 << 40), 4000)
    alice_only = rng.sample(range(1 << 40, 2 << 40), true_difference // 2)
    bob_only = rng.sample(range(2 << 40, 3 << 40), true_difference - true_difference // 2)
    alice = factory(31337)
    bob = factory(31337)
    alice.update_all(shared + alice_only, 1)
    bob.update_all(shared + bob_only, 2)
    return alice, bob


def _merged(factory, true_difference, seed):
    alice, bob = _sides(factory, true_difference, seed)
    return alice.merge(bob)


@pytest.mark.parametrize("factory", [L0Estimator, StrataEstimator], ids=["l0", "strata"])
def test_estimator_build_and_query(benchmark, factory):
    merged = _merged(factory, 256, seed=1)
    estimate = run_once(benchmark, merged.query)
    assert 256 / 8 <= estimate <= 256 * 8


ESTIMATORS = {"l0": L0Estimator, "strata": StrataEstimator, "median": MedianEstimator}


def _median_replica(index):
    """Replica ``index`` of a default :class:`MedianEstimator`, on its own."""
    return lambda seed: L0Estimator(derive_seed(seed, "replica", index))


def sweep(seed=0):
    rows = []
    for true_d in TRUE_DIFFERENCES:
        row = {"true d": true_d}
        for name, factory in ESTIMATORS.items():
            alice, bob = _sides(factory, true_d, seed=seed + true_d)
            row[f"{name} estimate"] = alice.merge(bob).query()
            # The merged sketch is never sent; Bob's one-sided frame is.
            row[f"{name} bits"] = bob.size_bits
        row["median replica bits"] = sum(
            _sides(_median_replica(index), true_d, seed=seed + true_d)[1].size_bits
            for index in range(5)
        )
        rows.append(row)
    return rows


def test_estimator_accuracy_and_size_report(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    for row in rows:
        assert row["true d"] / 8 <= row["l0 estimate"] <= row["true d"] * 8
        assert row["true d"] / 8 <= row["strata estimate"] <= row["true d"] * 8
        assert row["true d"] / 8 <= row["median estimate"] <= row["true d"] * 8
        # Replica frames are concatenated, so the median costs their sum.
        assert row["median bits"] == row["median replica bits"]
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
            description="L0-sketch vs strata set-difference estimators: "
            "estimate accuracy and sketch size across true differences",
            config=benchmark_config(args.seed, true_differences=list(TRUE_DIFFERENCES)),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
