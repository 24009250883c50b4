"""Service metrics: counters, per-protocol breakdown, report rendering."""

import json
import threading

from repro.service.metrics import ServiceMetrics, SessionRecord


def record(metrics, protocol="ibf", success=True, **kwargs):
    defaults = dict(
        rounds=2,
        messages=3,
        bits_charged=1000,
        wire_bytes_sent=80,
        wire_bytes_received=70,
        attempts=1,
    )
    defaults.update(kwargs)
    metrics.record_session(SessionRecord(protocol, "alice", success, **defaults))


def test_counters_aggregate():
    metrics = ServiceMetrics()
    metrics.record_start()
    metrics.record_start()
    record(metrics)
    record(metrics, protocol="cpi", success=False, attempts=3)
    record(metrics)
    metrics.record_stats_request()
    metrics.record_rejected()

    report = metrics.report()
    assert report["sessions_started"] == 2
    assert report["sessions_served"] == 2
    assert report["sessions_failed"] == 1
    assert report["rounds_total"] == 6
    assert report["messages_total"] == 9
    assert report["bits_charged_total"] == 3000
    assert report["wire_bytes_sent"] == 240
    assert report["wire_bytes_received"] == 210
    assert report["retries"] == 2  # attempts=3 -> two retries
    assert report["stats_requests"] == 1
    assert report["rejected_hellos"] == 1
    assert report["by_protocol"]["ibf"]["served"] == 2
    assert report["by_protocol"]["cpi"]["failed"] == 1
    json.dumps(report)  # must stay JSON-safe


def test_wire_overhead_is_bytes_beyond_charged_bits():
    metrics = ServiceMetrics()
    record(
        metrics,
        bits_charged=800,  # 100 charged bytes
        wire_bytes_sent=90,
        wire_bytes_received=40,  # 130 raw bytes -> 30 bytes of framing
    )
    assert metrics.report()["wire_overhead_bytes"] == 30


def test_format_report_mentions_every_protocol():
    metrics = ServiceMetrics()
    record(metrics, protocol="ibf")
    record(metrics, protocol="multiround", success=False)
    text = metrics.format_report()
    assert "1 served / 1 failed" in text
    assert "ibf" in text and "multiround" in text


def test_format_report_without_sessions():
    assert "0 served" in ServiceMetrics().format_report()


def test_thread_safety_of_recording():
    metrics = ServiceMetrics()

    def hammer():
        for _ in range(500):
            record(metrics)
            metrics.record_rejected()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report = metrics.report()
    assert report["sessions_served"] == 2000
    assert report["rejected_hellos"] == 2000
    assert report["bits_charged_total"] == 2_000_000
