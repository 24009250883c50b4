"""Service metrics: per-session records and aggregate counters.

Every session the server finishes is recorded as a :class:`SessionRecord`;
:class:`ServiceMetrics` aggregates them into the counters the ``/stats``
report exposes -- sessions served/failed, rounds, raw bytes on the wire
(frame headers included) vs. the bits the transcripts charged, and protocol
attempts beyond the first (``retries``, the repeated doubling variants).

The report comes in two shapes: :meth:`ServiceMetrics.report` returns the
JSON-safe dict served to ``stats`` control requests, and
:meth:`ServiceMetrics.format_report` renders it through the benchmark
harness's :func:`~repro.bench.reporting.format_table` for humans.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class SessionRecord:
    """What one finished session contributed to the aggregate counters."""

    protocol: str
    role: str
    success: bool
    rounds: int = 0
    messages: int = 0
    bits_charged: int = 0
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    attempts: int = 1
    error: str | None = None


@dataclass
class ServiceMetrics:
    """Aggregate service counters; safe to share across threads and tasks.

    The asyncio server mutates this from one event loop, but callers may
    also record from other threads, so updates take a lock (uncontended in
    the common case).
    """

    sessions_started: int = 0
    sessions_served: int = 0
    sessions_failed: int = 0
    rounds_total: int = 0
    messages_total: int = 0
    bits_charged_total: int = 0
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    retries: int = 0
    stats_requests: int = 0
    rejected_hellos: int = 0
    sessions_drained: int = 0
    sessions_aborted: int = 0
    mutations_applied: int = 0
    mutations_rejected: int = 0
    keys_inserted: int = 0
    keys_deleted: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_invalidations: int = 0
    journal_replays: int = 0
    journal_entries_replayed: int = 0
    snapshots_written: int = 0
    snapshot_failures: int = 0
    anti_entropy_cycles: int = 0
    store_dirty_datasets: int = 0
    store_journal_lag: int = 0
    sessions_shed_rate: int = 0
    sessions_shed_capacity: int = 0
    connections_dispatched: int = 0
    worker_restarts: int = 0
    by_protocol: dict[str, dict[str, int]] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # -- recording ------------------------------------------------------------------

    def record_start(self) -> None:
        with self._lock:
            self.sessions_started += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected_hellos += 1

    def record_stats_request(self) -> None:
        with self._lock:
            self.stats_requests += 1

    def record_shed(self, code: str) -> None:
        """Count one admission-control rejection by its code."""
        with self._lock:
            if code == "rate-limited":
                self.sessions_shed_rate += 1
            else:
                self.sessions_shed_capacity += 1

    def record_dispatch(self) -> None:
        """Count one connection handed from the supervisor to a worker."""
        with self._lock:
            self.connections_dispatched += 1

    def record_worker_restart(self) -> None:
        with self._lock:
            self.worker_restarts += 1

    def record_drain(self, drained: int, aborted: int) -> None:
        with self._lock:
            self.sessions_drained += drained
            self.sessions_aborted += aborted

    def record_mutation(self, inserted: int, deleted: int) -> None:
        with self._lock:
            self.mutations_applied += 1
            self.keys_inserted += inserted
            self.keys_deleted += deleted

    def record_mutation_rejected(self) -> None:
        with self._lock:
            self.mutations_rejected += 1

    def record_store_hit(self) -> None:
        with self._lock:
            self.store_hits += 1

    def record_store_miss(self) -> None:
        with self._lock:
            self.store_misses += 1

    def record_store_invalidation(self) -> None:
        with self._lock:
            self.store_invalidations += 1

    def record_journal_replay(self, entries: int) -> None:
        with self._lock:
            self.journal_replays += 1
            self.journal_entries_replayed += entries

    def record_snapshot(self) -> None:
        with self._lock:
            self.snapshots_written += 1

    def record_snapshot_failure(self) -> None:
        with self._lock:
            self.snapshot_failures += 1

    def record_anti_entropy_cycle(self) -> None:
        with self._lock:
            self.anti_entropy_cycles += 1

    def record_store_staleness(self, dirty_datasets: int, journal_lag: int) -> None:
        """Gauges (latest sweep's values, not running totals)."""
        with self._lock:
            self.store_dirty_datasets = dirty_datasets
            self.store_journal_lag = journal_lag

    def record_session(self, record: SessionRecord) -> None:
        with self._lock:
            if record.success:
                self.sessions_served += 1
            else:
                self.sessions_failed += 1
            self.rounds_total += record.rounds
            self.messages_total += record.messages
            self.bits_charged_total += record.bits_charged
            self.wire_bytes_sent += record.wire_bytes_sent
            self.wire_bytes_received += record.wire_bytes_received
            self.retries += max(0, record.attempts - 1)
            per = self.by_protocol.setdefault(
                record.protocol,
                {"served": 0, "failed": 0, "bits_charged": 0, "wire_bytes": 0},
            )
            per["served" if record.success else "failed"] += 1
            per["bits_charged"] += record.bits_charged
            per["wire_bytes"] += (
                record.wire_bytes_sent + record.wire_bytes_received
            )

    # -- aggregation across workers -------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A consistent, picklable copy of every counter.

        Taken under the lock, so a snapshot never shows a half-recorded
        session.  ``merge``-ing per-worker snapshots into a fresh
        :class:`ServiceMetrics` yields exactly the totals a single shared
        instance would have accumulated (counters are sums; the staleness
        gauges sum too, giving the fleet-wide dirty count).
        """
        with self._lock:
            snap: dict[str, Any] = {
                name: getattr(self, name) for name in MERGEABLE_COUNTERS
            }
            snap["by_protocol"] = {
                name: dict(per) for name, per in self.by_protocol.items()
            }
            return snap

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold one :meth:`snapshot` into this instance (addition only)."""
        with self._lock:
            for name in MERGEABLE_COUNTERS:
                setattr(self, name, getattr(self, name) + int(snapshot.get(name, 0)))
            for proto, per in (snapshot.get("by_protocol") or {}).items():
                mine = self.by_protocol.setdefault(
                    proto,
                    {"served": 0, "failed": 0, "bits_charged": 0, "wire_bytes": 0},
                )
                for key, value in per.items():
                    mine[key] = mine.get(key, 0) + int(value)

    # -- reporting ------------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """The JSON-safe aggregate report served to ``stats`` requests."""
        with self._lock:
            return {
                "sessions_started": self.sessions_started,
                "sessions_served": self.sessions_served,
                "sessions_failed": self.sessions_failed,
                "rejected_hellos": self.rejected_hellos,
                "stats_requests": self.stats_requests,
                "rounds_total": self.rounds_total,
                "messages_total": self.messages_total,
                "bits_charged_total": self.bits_charged_total,
                "wire_bytes_sent": self.wire_bytes_sent,
                "wire_bytes_received": self.wire_bytes_received,
                "wire_overhead_bytes": max(
                    0,
                    self.wire_bytes_sent
                    + self.wire_bytes_received
                    - (self.bits_charged_total + 7) // 8,
                ),
                "retries": self.retries,
                "sessions_drained": self.sessions_drained,
                "sessions_aborted": self.sessions_aborted,
                "admission": {
                    "shed_rate_limited": self.sessions_shed_rate,
                    "shed_at_capacity": self.sessions_shed_capacity,
                },
                "fleet": {
                    "connections_dispatched": self.connections_dispatched,
                    "worker_restarts": self.worker_restarts,
                },
                "mutations": {
                    "applied": self.mutations_applied,
                    "rejected": self.mutations_rejected,
                    "keys_inserted": self.keys_inserted,
                    "keys_deleted": self.keys_deleted,
                },
                "store": {
                    "hits": self.store_hits,
                    "misses": self.store_misses,
                    "invalidations": self.store_invalidations,
                    "journal_replays": self.journal_replays,
                    "journal_entries_replayed": self.journal_entries_replayed,
                    "snapshots_written": self.snapshots_written,
                    "snapshot_failures": self.snapshot_failures,
                    "anti_entropy_cycles": self.anti_entropy_cycles,
                    "dirty_datasets": self.store_dirty_datasets,
                    "journal_lag": self.store_journal_lag,
                },
                "by_protocol": {
                    name: dict(per) for name, per in sorted(self.by_protocol.items())
                },
            }

    def format_report(self, title: str = "service metrics") -> str:
        """Human-readable report (aggregate lines plus a per-protocol table)."""
        return format_stats_report(self.report(), title=title)


#: Every plain-int counter field, in declaration order -- the exact set
#: ``snapshot``/``merge`` carry (``by_protocol`` is handled structurally and
#: the lock is not state).  Derived from the dataclass fields so a counter
#: added later cannot silently fall out of fleet aggregation.
MERGEABLE_COUNTERS: tuple[str, ...] = tuple(
    f.name
    for f in dataclasses.fields(ServiceMetrics)
    if f.name not in ("by_protocol", "_lock")
)


def format_stats_report(report: dict[str, Any], title: str = "service metrics") -> str:
    """Render a :meth:`ServiceMetrics.report` dict for humans.

    Shared by :meth:`ServiceMetrics.format_report` (server side) and the
    ``python -m repro.service stats`` CLI (which only holds the JSON dict
    fetched over the wire): an aggregate summary, mutation/store lines when
    those subsystems saw traffic, and the per-protocol breakdown through
    the benchmark harness's :func:`~repro.bench.reporting.format_table`.
    """
    from repro.bench.reporting import format_table

    wire_bytes = report["wire_bytes_sent"] + report["wire_bytes_received"]
    lines = [
        f"{title}: {report['sessions_served']} served / "
        f"{report['sessions_failed']} failed "
        f"({report['sessions_started']} started, "
        f"{report['rejected_hellos']} rejected), "
        f"{report['rounds_total']} rounds, "
        f"{report['bits_charged_total']} bits charged, "
        f"{wire_bytes} wire bytes "
        f"({report['wire_overhead_bytes']} overhead), "
        f"{report['retries']} retries, "
        f"{report['sessions_drained']} drained / "
        f"{report['sessions_aborted']} aborted on shutdown"
    ]
    mutations = report.get("mutations", {})
    if any(mutations.values()):
        lines.append(
            f"mutations: {mutations['applied']} applied / "
            f"{mutations['rejected']} rejected "
            f"(+{mutations['keys_inserted']} / -{mutations['keys_deleted']} keys)"
        )
    admission = report.get("admission", {})
    if any(admission.values()):
        lines.append(
            f"admission: {admission['shed_rate_limited']} shed rate-limited / "
            f"{admission['shed_at_capacity']} shed at-capacity"
        )
    fleet = report.get("fleet", {})
    if any(fleet.values()):
        lines.append(
            f"fleet: {fleet['connections_dispatched']} connections dispatched, "
            f"{fleet['worker_restarts']} worker restarts"
        )
    store = report.get("store", {})
    if any(store.values()):
        lines.append(
            f"store: {store['hits']} hits / {store['misses']} misses, "
            f"{store['invalidations']} invalidations, "
            f"{store['journal_replays']} journal replays "
            f"({store['journal_entries_replayed']} entries), "
            f"{store['snapshots_written']} snapshots "
            f"({store['snapshot_failures']} failed), "
            f"{store['anti_entropy_cycles']} anti-entropy cycles, "
            f"{store['dirty_datasets']} dirty "
            f"(journal lag {store['journal_lag']})"
        )
    rendered = "\n".join(lines) + "\n"
    per_rows = [
        {"protocol": name, **per} for name, per in report["by_protocol"].items()
    ]
    if per_rows:
        rendered += format_table(per_rows, title="per-protocol")
    workers = report.get("workers") or {}
    if workers:
        worker_rows = [
            {
                "worker": worker_id,
                "served": wreport.get("sessions_served", 0),
                "failed": wreport.get("sessions_failed", 0),
                "rejected": wreport.get("rejected_hellos", 0),
                "drained": wreport.get("sessions_drained", 0),
                "bits_charged": wreport.get("bits_charged_total", 0),
                "wire_bytes": (
                    wreport.get("wire_bytes_sent", 0)
                    + wreport.get("wire_bytes_received", 0)
                ),
            }
            for worker_id, wreport in sorted(
                workers.items(), key=lambda item: int(item[0])
            )
        ]
        rendered += format_table(worker_rows, title="per-worker")
    return rendered
