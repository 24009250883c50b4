"""Smoke test of the end-to-end benchmark, collected by the tier-1 command.

Runs ``run.py --smoke`` (every workload at a handful of ops on tiny inputs,
untraced and traced) and checks the output against ``BENCHMARK.json``: every
workload and metric it names is printed exactly once with its unit, names and
counts stay within the benchmark contract, and every smoke op was verified.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(trace: int) -> dict[str, dict]:
    """``run.py --smoke`` over all workloads: workload -> its result object,
    with the metric names of its printed table under ``"printed"``."""
    finished = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--smoke", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert finished.returncode == 0, finished.stdout
    records = [
        json.loads(line[2:]) for line in finished.stdout.splitlines() if line.startswith("# ")
    ]
    results = [
        json.loads(line) for line in finished.stdout.splitlines() if line.startswith("{")
    ]
    assert len(records) == len(results)
    for record in records:
        assert {"nproc", "python", "numpy", "seed", "cell_backend", "field_kernel"} <= set(record)
        assert record["cell_backend"] == record["field_kernel"] == "numpy"
    names = [record["workload"] for record in records]
    assert len(set(names)) == len(names)
    rows = [
        line.split() for line in finished.stdout.splitlines() if line[:1] not in ("#", "{")
    ]
    for name, result in zip(names, results, strict=True):
        result["printed"] = [row[1] for row in rows if row[0] == name]
        assert all(len(row) == 4 for row in rows), rows  # workload metric value unit
    return dict(zip(names, results, strict=True))


def test_benchmark_json_stays_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[group]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(workload["why"]) <= 200 for workload in SPEC["workloads"])
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.timeout(120)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_named_metric_once(trace, group):
    expected = {metric["name"]: metric["unit"] for metric in SPEC[group]}
    results = smoke(trace)
    assert list(results) == [workload["name"] for workload in SPEC["workloads"]]
    for workload, result in results.items():
        assert sorted(result.pop("printed")) == sorted(expected), workload
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, workload
        assert result["correct"] is True, workload
        assert 1 <= result["attempted"] <= 10 and result["failed"] == 0, workload
        units = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert units == expected, workload
        assert all(
            isinstance(metric["value"], (int, float)) for metric in result["metrics"].values()
        ), workload
