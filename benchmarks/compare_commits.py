"""The acceptance arithmetic for a change, in one command.

    python3 benchmarks/compare_commits.py --parent DIR --change DIR
        [--pairs 10] [--seed-base 2018] [--workload NAME]...

``DIR`` are two checkouts of this repository (e.g. a ``git clone`` of
``HEAD~`` and the working tree).  For each pair ``i`` and each workload it
runs ``BENCHMARK.json``'s command once for each checkout -- one process per
run, seed ``seed-base + i`` on both sides, the side that goes first
alternating -- and reads the end-to-end metrics off the last JSON line the
command prints.  It is a reader of that line, not another benchmark: the
run length, workloads, metrics, directions and bounds all come from the
parent checkout's ``BENCHMARK.json``.

Every run starts in a fresh temporary copy of its checkout's tracked and
unignored files (``git ls-files -co --exclude-standard``), so neither side
carries ``__pycache__``, ``.pytest_cache`` or ``benchmarks/e2e/.work`` from
earlier use: those alone moved the ``serve-*`` workloads' ``op_ms`` and
``peak_rss_mib`` by several percent.  A run that exits non-zero only because
some of its ops failed (its result line reports ``failed > 0`` and the runner
flagged no invalid run) counts, failed ops and all.  Any other non-zero run
aborts the comparison: one with no result line, and an invalid one (a tier
resolved to the wrong name, an op's bits or rounds changed between
repetitions, or the workload's own check failed).

Per workload and metric it prints each side's median and quartiles, in how
many pairs the change read better (ties count for neither), whether the
medians differ by more than the parent's own inter-quartile distance, and
the verdict against the metric's ``bound``: ``same`` when every pair
reads exactly equal (however far the readings spread across seeds),
otherwise ``better`` (a gain may be claimed: at least nine tenths of the
pairs and clear of the parent's spread), ``worse`` (the median regressed
past the bound), ``unresolved`` (the runs spread further than the bound and
do not all read better), or ``same``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def fresh_copy(checkout: Path, into: Path) -> Path:
    """Copy ``checkout``'s tracked and unignored files into ``into``."""
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"],
        cwd=checkout, stdout=subprocess.PIPE, check=True,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = checkout / name
        if source.is_file():  # a tracked file deleted from the tree is listed too
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return into


def result_line(stdout: str) -> dict | None:
    """The run's result: its last line, if that is a JSON object with metrics."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def counted(result: dict | None, exit_code: int, stderr: str, where: str) -> dict:
    """``result`` if the run counts; otherwise abort the comparison.

    A run counts when it exited 0, or when it exited non-zero because ops
    failed: its result line reports ``failed > 0`` and its stderr holds no
    ``invalid run:`` line, which the runner prints for every other reason
    it exits 1.
    """
    if result is None:
        raise SystemExit(f"{where} exited {exit_code} without a result line")
    if exit_code != 0 and (result["failed"] == 0 or "invalid run:" in stderr):
        raise SystemExit(f"{where} exited {exit_code}: an invalid run")
    return {**result, "exit_code": exit_code}


def one_run(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One run in its own process and its own fresh copy of ``checkout``."""
    with tempfile.TemporaryDirectory(prefix="compare-commits-") as scratch:
        finished = subprocess.run(
            command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
            cwd=fresh_copy(checkout, Path(scratch)), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=600,
        )
    sys.stderr.write(finished.stderr)
    return counted(
        result_line(finished.stdout), finished.returncode, finished.stderr,
        f"{checkout}: {workload} at seed {seed}",
    )


def quartiles(values: list[float]) -> tuple[float, ...]:
    """First quartile, median, third quartile (one reading is all three)."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired readings of one metric (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0  # so that smaller is always better
    wins = sum(sign * c < sign * p for p, c in zip(parent, change, strict=True))
    losses = sum(sign * c > sign * p for p, c in zip(parent, change, strict=True))
    p_low, p_median, p_high = quartiles(parent)
    c_low, c_median, c_high = quartiles(change)
    gain = sign * (p_median - c_median)  # positive: the change's median is better
    limit = bound * (abs(p_median) or 1.0)
    clear = abs(gain) > p_high - p_low
    if parent == change:  # every pair tied exactly: no spread can hide a change
        word = "same"
    elif gain > 0 and clear and wins >= 0.9 * len(parent):
        word = "better"
    elif -gain > limit:
        word = "worse"
    elif max(p_high - p_low, c_high - c_low) > limit and not (
        max(sign * c for c in change) < min(sign * p for p in parent)
    ):
        word = "unresolved"
    else:
        word = "same"
    return {
        "parent": (p_low, p_median, p_high), "change": (c_low, c_median, c_high),
        "wins": wins, "losses": losses, "clear_of_parent_iqr": clear, "verdict": word,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=2018)
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    args = parser.parse_args()
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs: dict[str, dict[str, list[dict]]] = {
        name: {"parent": [], "change": []} for name in workloads
    }
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in workloads:
            for side in order:
                result = one_run(
                    sides[side], spec["command"], name, args.seed_base + pair, spec["run_seconds"]
                )
                runs[name][side].append(result)
                print(f"# pair {pair} {name} {side}: "
                      + " ".join(f"{k}={m['value']:.7g}" for k, m in result["metrics"].items())
                      + f" failed={result['failed']}/{result['attempted']}"
                      + f" exit={result['exit_code']}", flush=True)

    worse = 0
    print(f"{'workload':18s} {'metric':15s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'won-lost':>9s} {'>IQR':>5s} {'bound':>6s} verdict")
    for name in workloads:
        for metric in spec["end_to_end"]:
            parent, change = (
                [run["metrics"][metric["name"]]["value"] for run in runs[name][side]]
                for side in ("parent", "change")
            )
            row = verdict(parent, change, metric["better"], metric["bound"])
            worse += row["verdict"] == "worse"
            spreads = " ".join(
                "/".join(f"{value:.7g}" for value in row[side]).rjust(32)
                for side in ("parent", "change")
            )
            print(f"{name:18s} {metric['name']:15s} {spreads} "
                  f"{row['wins']:>3d}-{row['losses']:<2d}/{args.pairs:<2d} "
                  f"{'yes' if row['clear_of_parent_iqr'] else 'no':>5s} "
                  f"{metric['bound']:>6g} {row['verdict']}")
        shares = [
            sum(run["failed"] for run in runs[name][side])
            / max(1, sum(run["attempted"] for run in runs[name][side]))
            for side in ("parent", "change")
        ]
        worse += shares[1] > shares[0]
        print(f"{name:18s} {'failed share':15s} {shares[0]:>32.4g} {shares[1]:>32.4g}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
