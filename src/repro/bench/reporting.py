"""Report tables and recorded-benchmark (trajectory) helpers.

Besides the plain-text tables the experiment harness prints, this module
owns the ``BENCH_*.json`` records checked in at the repository root: each
performance-focused change records its headline speedup so later changes
can regression-check against the recorded trajectory
(:func:`load_benchmark_record`, :func:`headline_speedups`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

#: Recorded benchmark files at the repository root and the path (in their
#: ``results`` rows) of the headline speedup each one tracks.
BENCHMARK_RECORDS = {
    "cluster_convergence": "BENCH_cluster.json",
    "field_kernels": "BENCH_field_kernels.json",
    "setsofsets_encoding": "BENCH_setsofsets.json",
    "service_throughput": "BENCH_service.json",
    "sketch_store": "BENCH_store.json",
}


def format_table(rows: Sequence[Mapping[str, object]], title: str | None = None) -> str:
    """Render a list of row dictionaries as an aligned fixed-width table."""
    if not rows:
        return (title + "\n(no rows)\n") if title else "(no rows)\n"
    headers = list(rows[0].keys())
    widths = {
        header: max(len(str(header)), max(len(str(row.get(header, ""))) for row in rows))
        for header in headers
    }
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(header).ljust(widths[header]) for header in headers)
    lines.append(header_line)
    lines.append("  ".join("-" * widths[header] for header in headers))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(header, "")).ljust(widths[header]) for header in headers)
        )
    return "\n".join(lines) + "\n"


def print_table(rows: Sequence[Mapping[str, object]], title: str | None = None) -> None:
    """Print :func:`format_table` output."""
    print(format_table(rows, title))


def format_transcript_breakdown(transcript, title: str | None = None) -> str:
    """Per-round bits table for one protocol transcript.

    Renders :meth:`repro.comm.transcript.Transcript.round_summary` -- the
    same breakdown the session layer exposes -- through
    :func:`format_table`, so benchmark reports can show where a protocol's
    communication goes round by round.
    """
    return format_table(transcript.round_summary(), title)


def write_benchmark_record(
    path: str | Path,
    *,
    benchmark: str,
    description: str,
    results: Sequence[Mapping[str, object]],
    **extra: object,
) -> None:
    """Write one ``BENCH_*.json`` record in the repository's standard shape."""
    payload: dict[str, object] = {"benchmark": benchmark, "description": description}
    payload.update(extra)
    payload["results"] = list(results)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_benchmark_record(path: str | Path) -> dict:
    """Load one ``BENCH_*.json`` record (raises ``FileNotFoundError`` if absent)."""
    return json.loads(Path(path).read_text())


def headline_speedups(root: str | Path) -> dict[str, float]:
    """The recorded headline speedups, one per benchmark trajectory.

    For every known record under ``root`` (see :data:`BENCHMARK_RECORDS`)
    this returns the largest per-row ``speedup`` -- the number a future PR
    should not regress.  Missing records are skipped, so the repository
    stays usable before a benchmark has ever been recorded.
    """
    root = Path(root)
    headline: dict[str, float] = {}
    for name, filename in BENCHMARK_RECORDS.items():
        path = root / filename
        if not path.exists():
            continue
        record = load_benchmark_record(path)
        speedups = [
            float(row["speedup"])
            for row in record.get("results", [])
            if "speedup" in row
        ]
        if speedups:
            headline[name] = max(speedups)
    return headline
