"""E8 -- Theorems 5.2 / 5.3: degree-ordering random graph reconciliation.

Paper claims: (a) G(n, p) is (h, d+1, 2d+1)-separated with probability
1 - delta for the (asymptotic) parameter range of Theorem 5.3 -- separation
improves with density and size and degrades with d; (b) when the graph is
separated, one round and O(d (log d log h + log n)) bits reconcile the
unlabeled graphs (Theorem 5.2, success probability >= 2/3).

At laptop scale vanilla G(n, p) is essentially never separated (the theorem
is asymptotic), so part (b) runs on the planted-separation generator
documented in DESIGN.md; part (a) reports the separation trend on vanilla
graphs.
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
from repro.graphs import is_degree_separated
from repro.graphs.random_graphs import (
    gnp_random_graph,
    planted_separated_graph,
    reconciliation_pair,
)

SEPARATION_CONFIGS = ((100, 0.2), (100, 0.5), (300, 0.5))
RECON_N, RECON_P, RECON_D, RECON_H = 400, 0.5, 2, 40
TITLE_A = "E8a: (h=3, d+1, 2d+1)-separation of vanilla G(n,p)"
TITLE_B = "E8b: degree-ordering reconciliation (planted separation)"


def separation_sweep(seed=0):
    rows = []
    for n, p in SEPARATION_CONFIGS:
        for d in (1, 3):
            separated = sum(
                is_degree_separated(gnp_random_graph(n, p, seed + offset), 3, d + 1, 2 * d + 1)
                for offset in range(5)
            )
            rows.append({"n": n, "p": p, "d": d, "separated/5": separated})
    return rows


def reconciliation_rows(seed=0):
    n, p, d, h = RECON_N, RECON_P, RECON_D, RECON_H
    rows = []
    successes = 0
    for offset in range(3):
        base = planted_separated_graph(n, p, h, degree_gap=d + 1, seed=seed + offset + 40)
        pair = reconciliation_pair(n, p, d, seed=seed + offset + 140, base=base)
        result = reconcile(
            pair.alice, pair.bob, protocol="degree_order", difference_bound=d, num_top=h,
            seed=seed + offset,
        )
        successes += bool(result.success)
        rows.append(
            {
                "seed": seed + offset,
                "success": result.success,
                "bits": result.total_bits,
                "rounds": result.num_rounds,
                "adjacency-matrix bits": n * (n - 1) // 2,
            }
        )
    return rows, successes


def test_separation_probability_trend(benchmark):
    """Theorem 5.3 shape: separation improves with p and n, degrades with d."""
    rows = run_once(benchmark, separation_sweep)
    print()
    print(format_table(rows, TITLE_A))
    # Denser/larger graphs are never less separated than sparse/small ones
    # for the same d (the asymptotic trend of Theorem 5.3).
    for d in (1, 3):
        by_config = {(row["n"], row["p"]): row["separated/5"] for row in rows if row["d"] == d}
        assert by_config[(300, 0.5)] >= by_config[(100, 0.2)]


def test_degree_order_reconciliation(benchmark):
    """Theorem 5.2 on planted-separation instances: success and communication."""
    rows, successes = run_once(benchmark, reconciliation_rows)
    print()
    print(format_table(rows, TITLE_B))
    # Theorem 5.2 promises success probability >= 2/3; require it empirically.
    assert successes >= 2
    for row in rows:
        if row["success"]:
            assert row["rounds"] == 1
            assert row["bits"] < row["adjacency-matrix bits"] / 4


def main() -> None:
    args = benchmark_parser(
        "E8: degree-ordering separation and reconciliation of G(n,p)"
    ).parse_args()
    separation = separation_sweep(args.seed)
    print(format_table(separation, TITLE_A))
    rows, successes = reconciliation_rows(args.seed)
    print(format_table(rows, TITLE_B))
    print(f"successes: {successes}/3")
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_random_graph_degree_order",
            description="Degree-ordering separation trend on vanilla G(n,p) "
            "and reconciliation on planted-separation instances",
            config=benchmark_config(
                args.seed,
                separation_configs=[list(config) for config in SEPARATION_CONFIGS],
                reconciliation=[RECON_N, RECON_P, RECON_D, RECON_H],
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
