"""Tests for the experiment harness (measurement and reporting)."""

from pathlib import Path

from repro.bench import (
    BENCHMARK_RECORDS,
    format_table,
    headline_speedups,
    load_benchmark_record,
    measure_protocol,
    summarize,
    write_benchmark_record,
)
from repro.bench.table1 import Table1Config, run_table1
from repro.comm import ReconciliationResult, Transcript

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _fake_result(success=True, bits=100):
    transcript = Transcript()
    transcript.send("alice", "payload", bits)
    return ReconciliationResult(success, {1} if success else None, transcript)


class TestRunner:
    def test_measure_protocol_counts(self):
        measurement = measure_protocol("demo", lambda seed: _fake_result(), repeats=4)
        assert measurement.trials == 4
        assert measurement.successes == 4
        assert measurement.success_rate == 1.0
        assert measurement.median_bits == 100
        assert measurement.median_rounds == 1

    def test_failures_excluded_from_bits(self):
        outcomes = iter([True, False, True])

        def run(seed):
            return _fake_result(success=next(outcomes))

        measurement = measure_protocol("demo", run, repeats=3)
        assert measurement.successes == 2
        assert measurement.success_rate == 2 / 3
        assert len(measurement.bits) == 2

    def test_summarize_rows(self):
        measurement = measure_protocol("demo", lambda seed: _fake_result(), repeats=2)
        rows = summarize([measurement])
        assert rows[0]["protocol"] == "demo"
        assert rows[0]["bits"] == 100


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "bb": "xy"}, {"a": 22, "bb": "z"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_empty(self):
        assert "(no rows)" in format_table([])


class TestBenchmarkTrajectory:
    def test_roundtrip_record(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        write_benchmark_record(
            path,
            benchmark="demo",
            description="demo record",
            extra_field=3,
            results=[{"n": 10, "speedup": 4.5}],
        )
        record = load_benchmark_record(path)
        assert record["benchmark"] == "demo"
        assert record["extra_field"] == 3
        assert record["results"][0]["speedup"] == 4.5

    def test_headline_speedups_skips_missing(self, tmp_path):
        assert headline_speedups(tmp_path) == {}

    def test_recorded_trajectories_meet_their_floors(self):
        """Regress-check: the checked-in records must hold their floors."""
        headline = headline_speedups(REPO_ROOT)
        for name, filename in BENCHMARK_RECORDS.items():
            path = REPO_ROOT / filename
            if not path.exists():
                continue
            record = load_benchmark_record(path)
            assert headline[name] >= record.get("speedup_floor", 1.0), (
                name,
                headline[name],
            )
            # Phase-specific floors ride on individual rows: any row that
            # records a "<metric>_floor" must also hold the matching metric
            # (e.g. peel_speedup vs peel_speedup_floor at n=1e7, gcd's
            # speedup vs gcd_speedup_floor at d=1e4).
            for row in record.get("results", []):
                for metric in ("peel_speedup", "gcd_speedup", "fleet_speedup"):
                    floor = row.get(f"{metric}_floor", record.get(f"{metric}_floor"))
                    if floor is None or metric not in row:
                        continue
                    assert row[metric] >= floor, (name, metric, row)
        # All five trajectories are recorded in this repository.
        assert {
            "cluster_convergence",
            "field_kernels",
            "setsofsets_encoding",
            "service_throughput",
            "sketch_store",
        } <= set(headline)


class TestTable1Experiment:
    def test_small_run_produces_all_protocols(self):
        # One trial per protocol at u = 96, s = 12 is seed luck: over seeds
        # 0-149 about 3 % of seeds fail per protocol (naive 4, IBLT of IBLTs
        # 3, multi-round 3 of 150), before and after any change of hash
        # values.  A change that moves child-hash values moves the
        # parent-IBLT keys, so re-seed this test then; do not loosen it.
        config = Table1Config(
            universe_size=96,
            num_children=12,
            num_changes=4,
            children_touched=2,
            repeats=1,
            seed=2018,
        )
        measurements = run_table1(config)
        assert len(measurements) == 4
        assert all(m.trials == 1 for m in measurements)
        assert all(m.success_rate == 1.0 for m in measurements)
