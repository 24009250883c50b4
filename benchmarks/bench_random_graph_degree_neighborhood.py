"""E9 -- Theorems 5.5 / 5.6: degree-neighborhood random graph reconciliation.

Paper claims: (a) the minimum pairwise disjointness of the degree
neighborhoods of G(n, p) grows with pn (Theorem 5.5 -- asymptotically it
exceeds 4d+1 whp); (b) when it does, one round and roughly O(d pn log n)
bits reconcile the graphs (Theorem 5.6) -- about a pn factor more than the
degree-ordering scheme, in exchange for tolerating much sparser graphs.
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
from repro.graphs import neighborhood_disjointness
from repro.graphs.random_graphs import gnp_random_graph, reconciliation_pair

CONFIGS = ((120, 0.1), (120, 0.3), (240, 0.3))
RECON_N, RECON_P, RECON_D = 150, 0.35, 1
TITLE = "E9a: degree-neighborhood disjointness of G(n,p)"


def disjointness_sweep(seed=0):
    rows = []
    for n, p in CONFIGS:
        disjointness = min(
            neighborhood_disjointness(gnp_random_graph(n, p, seed + offset), int(p * n))
            for offset in range(3)
        )
        rows.append(
            {
                "n": n,
                "p": p,
                "pn": int(p * n),
                "min pairwise disjointness": disjointness,
                "supports d": max(0, (disjointness - 1) // 4),
            }
        )
    return rows


def reconciliation_search(seed=0):
    """The first of 20 seeds whose disjointness supports d, reconciled."""
    n, p, d = RECON_N, RECON_P, RECON_D
    max_degree = int(p * n)
    for offset in range(20):
        base = gnp_random_graph(n, p, seed + offset)
        if neighborhood_disjointness(base, max_degree) < 4 * d + 1:
            continue
        pair = reconciliation_pair(n, p, d, seed=seed + offset + 500, base=base)
        result = reconcile(
            pair.alice, pair.bob, protocol="degree_neighborhood", difference_bound=d,
            max_degree=max_degree, seed=seed + offset,
        )
        return seed + offset, result
    return None, None


def test_disjointness_trend(benchmark):
    """Theorem 5.5 shape: disjointness grows with the expected degree pn."""
    rows = run_once(benchmark, disjointness_sweep)
    print()
    print(format_table(rows, TITLE))
    assert rows[-1]["min pairwise disjointness"] >= rows[0]["min pairwise disjointness"]


def test_degree_neighborhood_reconciliation(benchmark):
    """Theorem 5.6 end to end on an instance whose disjointness supports d=1."""
    seed, result = run_once(benchmark, reconciliation_search)
    if result is None:
        print("\nE9b: no sufficiently disjoint instance found at this scale (see EXPERIMENTS.md)")
        return
    print(
        f"\nE9b: degree-neighborhood reconciliation at n={RECON_N}, p={RECON_P}, "
        f"d={RECON_D} (seed {seed}): "
        f"success={result.success}, bits={result.total_bits}, rounds={result.num_rounds}"
    )
    if result.success:
        assert result.num_rounds == 1


def main() -> None:
    args = benchmark_parser(
        "E9: degree-neighborhood disjointness and reconciliation of G(n,p)"
    ).parse_args()
    rows = disjointness_sweep(args.seed)
    print(format_table(rows, TITLE))
    seed, result = reconciliation_search(args.seed)
    if result is None:
        print("E9b: no sufficiently disjoint instance found at this scale")
    else:
        print(
            f"E9b: reconciliation at n={RECON_N}, p={RECON_P}, d={RECON_D} "
            f"(seed {seed}): success={result.success}, bits={result.total_bits}, "
            f"rounds={result.num_rounds}"
        )
    if args.output is not None:
        write_benchmark_record(
            args.output,
            benchmark="bench_random_graph_degree_neighborhood",
            description="Degree-neighborhood disjointness of G(n,p) and one "
            "end-to-end reconciliation on a sufficiently disjoint instance",
            config=benchmark_config(
                args.seed,
                configs=[list(config) for config in CONFIGS],
                reconciliation=[RECON_N, RECON_P, RECON_D],
            ),
            results=rows,
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
