"""E11 -- Theorems 4.1, 4.3, 4.4: unbounded-computation graph reconciliation.

Paper claims: graph isomorphism needs only O(log n) bits (Thm 4.1); graph
reconciliation needs O(d log n) bits (Thm 4.3) and that is tight (Thm 4.4).
Communication is minuscule; computation explodes (Bob enumerates O(n^{2d})
graphs), which is exactly why Section 5 exists.
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
from repro.graphs import Graph, are_isomorphic_small, isomorphism_fingerprint_protocol

NUM_VERTICES = 6
DIFFERENCES = (0, 1, 2)
TITLE = "E11: exhaustive reconciliation, bits vs the d log n bound"


def _path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_fingerprint_isomorphism(benchmark):
    graph = _path(7)
    result = run_once(
        benchmark, isomorphism_fingerprint_protocol, graph.relabel([6, 5, 4, 3, 2, 1, 0]), graph, 3
    )
    assert result.recovered is True
    assert result.total_bits < 200


@pytest.mark.parametrize("difference", [1, 2])
def test_exhaustive_reconciliation(benchmark, difference):
    alice = _path(6).relabel([3, 1, 5, 0, 2, 4])
    bob = _path(6)
    bob.toggle_edge(0, 3)
    if difference == 2:
        bob.toggle_edge(2, 5)
    result = run_once(
        benchmark, reconcile, alice, bob, protocol="exhaustive",
        difference_bound=difference, seed=9,
    )
    assert result.success
    assert are_isomorphic_small(result.recovered, alice)


def sweep(seed=0):
    rows = []
    alice = _path(NUM_VERTICES)
    for difference in DIFFERENCES:
        bob = _path(NUM_VERTICES)
        result = reconcile(
            alice, bob, protocol="exhaustive", difference_bound=difference,
            seed=seed + difference,
        )
        lower_bound = max(1, difference) * NUM_VERTICES.bit_length()
        rows.append(
            {
                "d": difference,
                "bits": result.total_bits,
                "~d log n lower bound": lower_bound,
                "success": result.success,
            }
        )
    return rows


def test_communication_vs_lower_bound(benchmark):
    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, TITLE))
    assert all(row["success"] for row in rows)
    # Communication grows with d (Theorem 4.3/4.4 shape) and stays tiny.
    assert rows[-1]["bits"] >= rows[0]["bits"]
    assert rows[-1]["bits"] < 200


def main() -> None:
    args = benchmark_parser(TITLE).parse_args()
    rows = sweep(args.seed)
    print(format_table(rows, TITLE))
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_exhaustive_graph",
            description="Unbounded-computation graph reconciliation on a "
            "6-vertex path: total bits against the d log n lower bound",
            config=benchmark_config(
                args.seed, num_vertices=NUM_VERTICES, differences=list(DIFFERENCES)
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
