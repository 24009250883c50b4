"""Does the benchmark agree with itself?  Two sets of runs of the same code.

    python3 benchmarks/e2e/repeat.py [--runs 3] [--seed 2018] [--workload NAME]...

Each set makes ``--runs`` untraced runs of every workload, one process per
run, run ``i`` with seed ``seed + i``, the workloads interleaved so that a
noisy minute on the host lands on all of them.  For every end-to-end metric
of every workload it prints the two medians, how much worse the second is
than the first, each set's spread (the distance between the first and third
quartile as a share of the median) and the metric's bound from
``BENCHMARK.json``.  It exits non-zero when a second median is worse than the
first by more than the bound, or a spread other than ``setup_s``'s exceeds it:
the acceptance arithmetic applied to a later change, applied to no change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict[str, float]:
    """One untraced run in its own process; its end-to-end metric values."""
    finished = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per workload per set")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    workloads = args.workload or names

    sets: list[dict[str, list[dict[str, float]]]] = []
    for _ in range(2):
        runs: dict[str, list[dict[str, float]]] = {name: [] for name in workloads}
        for index in range(args.runs):
            for name in workloads:
                runs[name].append(
                    one_run(spec["command"], name, args.seed + index, spec["run_seconds"])
                )
        sets.append(runs)

    exceeded = 0
    print(f"{'workload':20s} {'metric':16s} {'median A':>14s} {'median B':>14s} "
          f"{'B worse by':>10s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for name in workloads:
        for metric in spec["end_to_end"]:
            first, second = (
                [run[metric["name"]] for run in runs[name]] for runs in sets
            )
            median_a, median_b = statistics.median(first), statistics.median(second)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(first), spread(second))
            over = worse > metric["bound"] or (
                metric["name"] != "setup_s" and max(spreads) > metric["bound"]
            )
            exceeded += over
            print(f"{name:20s} {metric['name']:16s} {median_a:14.4f} {median_b:14.4f} "
                  f"{worse:+10.2%} {spreads[0]:9.2%} {spreads[1]:9.2%} "
                  f"{metric['bound']:6.1%}{'  EXCEEDED' if over else ''}")
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main())
