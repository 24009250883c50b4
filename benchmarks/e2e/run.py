"""The end-to-end benchmark: one command, every metric by name with its unit.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 2018]
        [--seconds 10] [--trace 0|1] [--smoke] [--trace-out FILE]

For each workload (default: all seven) it generates the inputs from the seed,
sets up five times (``setup_s`` is the median), runs ops in a closed loop for
``--seconds``, verifies every op's output and prints the metrics, then -- as
the last line for that workload -- one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``setup_s`` and ``op_ms`` are
scaled to a quiet reference host by a calibration kernel timed between the ops
(``calibration.py``); the record line carries the raw values.  ``--trace 0`` (default) measures
the six end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that yields the per-layer ledger.  The exit code is non-zero when
any output was wrong or the run is invalid (a tier resolved to something other
than the requested ``numpy``, store hit share under 0.99, tracing that covers
under 0.95 of an in-process session or costs over 10 %).

``peak_rss_mib`` is a process high-water mark: compare it between runs of one
workload per process, which is how ``repeat.py`` and the driver run it.

See README.md in this directory for the catalogue of workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy  # noqa: E402

import repro.field  # noqa: E402
from repro.iblt import IBLT, IBLTParameters  # noqa: E402

from calibration import Calibrator, percentile  # noqa: E402
from trace import SpanRecorder, session_ledger  # noqa: E402
from workloads import BACKEND, FIELD_KERNEL, UNIVERSE, WORKLOADS, OpResult, Workload  # noqa: E402

#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 10.0
SETUP_REPEATS = 5
#: The workloads whose op is one in-process session (tracing must cover them).
IN_PROCESS_SESSIONS = ("set-known", "set-unknown", "sos-cascading", "graph-degree-order")
MIN_COVERAGE = 0.95
MAX_OVERHEAD = 1.10
Metrics = dict[str, tuple[float, str]]


def resolved_tiers() -> dict[str, str]:
    """What the requested cell backend and field kernel resolve to here."""
    table = IBLT(IBLTParameters(num_cells=8, key_bits=20, seed=0), backend=BACKEND)
    kernel = repro.field.kernel_for(repro.field.next_prime(UNIVERSE), FIELD_KERNEL)
    return {"cell_backend": table.backend, "field_kernel": kernel.name}


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


#: Kernel samples taken around each set-up.
SETUP_KERNEL_SAMPLES = 5


def untraced_run(workload: Workload, seconds: float) -> tuple[list[OpResult], Metrics, dict]:
    """The end-to-end metrics of one workload, tracing off.

    Both timings are scaled to the reference host by the calibration kernel
    sampled in the same phase (see ``calibration.py``); the raw values go to
    the record line as ``host.*`` diagnostics.
    """
    setups = []
    setup_phase = Calibrator()
    for _ in range(1 if workload.smoke else SETUP_REPEATS):
        workload.close()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        for _ in range(SETUP_KERNEL_SAMPLES):
            setup_phase.sample()
    run_phase = Calibrator()
    results = workload.run(seconds, calibrator=run_phase)
    workload.close()
    cycle = results[: workload.cycle]
    times = [result.seconds * 1e3 for result in results]
    failed = sum(not result.ok for result in results)
    # Each op's time is scaled by the kernel samples taken just before and
    # after it; the repetitions of each distinct op give a median, and the
    # distinct ops of the cycle are averaged, so every op of the cycle counts.
    repetitions: dict[int, list[float]] = {}
    for k, result in enumerate(results):
        repetitions.setdefault(k % workload.cycle, []).append(
            result.seconds * 1e3 * run_phase.scale_near(result.finished)
        )
    metrics: Metrics = {
        "setup_s": (statistics.median(setups) * setup_phase.scale, "s"),
        "op_ms": (statistics.fmean(map(statistics.median, repetitions.values())), "ms"),
        "bits_per_op": (statistics.fmean(result.bits for result in cycle), "bits"),
        "rounds_per_op": (statistics.fmean(result.rounds for result in cycle), "count"),
        "verified_share": ((len(results) - failed) / len(results), "ratio"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    diagnostics = {
        "setup_s_raw": statistics.median(setups),
        "op_ms_p10_raw": percentile(times, 0.1),
        "op_ms_p50_raw": percentile(times, 0.5),
        "op_ms_p95_raw": percentile(times, 0.95),
        "ops_per_s_raw": len(results) / (sum(times) / 1e3),
        "kernel_ms_p10": run_phase.kernel_ms_p10,
    }
    return results, metrics, diagnostics


def traced_run(
    workload: Workload, seconds: float, seed: int, recorder: SpanRecorder
) -> tuple[list[OpResult], Metrics]:
    """The per-layer metrics: the workload's ops for the host diagnostics, its
    reference session through the tracing transport, then the layer ledger."""
    import probes  # here, so a vanished probe target fails traced runs only

    workload.setup()
    try:
        calibrator = Calibrator()
        results = workload.run(0.3 * seconds, calibrator=calibrator)
        times = [result.seconds * 1e3 for result in results]
        metrics: Metrics = {
            "host.op_ms_p50": (percentile(times, 0.5), "ms"),
            "host.op_ms_p95": (percentile(times, 0.95), "ms"),
            "host.ops_per_s_raw": (len(results) / (sum(times) / 1e3), "1/s"),
            "host.noise_ratio": (percentile(times, 0.5) / percentile(times, 0.1), "ratio"),
            "host.kernel_ms_p10": (calibrator.kernel_ms_p10, "ms"),
        }
        pairs = 2 if workload.smoke else 8
        metrics.update(session_ledger(workload, 0.3 * seconds, pairs, recorder))
    finally:
        workload.close()
    metrics.update(probes.layer_ledger(seed, workload.smoke))
    return results, metrics


def deterministic(workload: Workload, results: list[OpResult]) -> bool:
    """Op ``k`` must cost what op ``k mod cycle`` cost: same bits, same rounds."""
    def cost(result: OpResult) -> tuple[int, int, bool]:
        return result.bits, result.rounds, result.ok

    return all(
        cost(result) == cost(results[k % workload.cycle]) for k, result in enumerate(results)
    )


def run_workload(name: str, args: argparse.Namespace, recorder: SpanRecorder) -> bool:
    workload = WORKLOADS[name](args.seed, args.smoke)
    tiers = resolved_tiers()
    problems = [
        f"{tier} resolved to {resolved!r}, not {requested!r}"
        for tier, resolved, requested in (
            ("cell backend", tiers["cell_backend"], BACKEND),
            ("field kernel", tiers["field_kernel"], FIELD_KERNEL),
        )
        if resolved != requested
    ]
    diagnostics: dict[str, Any] = {}
    try:
        if args.trace:
            results, metrics = traced_run(workload, args.seconds, args.seed, recorder)
            # A smoke run times two sessions: too few to judge a timing ratio.
            if not args.smoke and metrics["trace.overhead_ratio"][0] > MAX_OVERHEAD:
                problems.append(f"tracing overhead above {MAX_OVERHEAD}")
            if name in IN_PROCESS_SESSIONS and metrics["trace.coverage"][0] < MIN_COVERAGE:
                problems.append(f"trace coverage under {MIN_COVERAGE}")
        else:
            results, metrics, diagnostics = untraced_run(workload, args.seconds)
    except (ImportError, AttributeError) as exc:
        print(f"{name}: missing: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    finally:
        workload.close()
    if not deterministic(workload, results):
        problems.append("an op's bits or rounds changed between repetitions")
    invalid = workload.valid()
    if invalid is not None:
        problems.append(invalid)
    failed = sum(not result.ok for result in results)
    for result in [result for result in results if not result.ok][:3]:
        print(f"{name}: failed op: {result.error}", file=sys.stderr)
    for problem in problems:
        print(f"{name}: invalid run: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems

    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cycle": workload.cycle, "ops_attempted": len(results), "ops_failed": failed,
        **tiers, **{f"host.{key}": value for key, value in diagnostics.items()},
    }
    print(f"# {json.dumps(record)}")
    for metric, (value, unit) in metrics.items():
        print(f"{name:20s} {metric:36s} {value:16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results),
                "failed": failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each workload's ops are measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, a handful of ops, no timed phase")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 0.0
    recorders = {name: SpanRecorder() for name in args.workload or WORKLOADS}
    correct = [run_workload(name, args, recorder) for name, recorder in recorders.items()]
    if args.trace_out is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for name, recorder in recorders.items():
                recorder.write(handle, name)
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
