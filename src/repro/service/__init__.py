"""The concurrent reconciliation service.

Three pillars on top of the protocol-session layer
(:mod:`repro.protocols`):

* **Async sync server + client** -- :class:`SyncServer` multiplexes many
  simultaneous protocol sessions on one event loop, speaking the same frame
  format as the blocking :class:`~repro.protocols.transports.SocketTransport`
  through :class:`AsyncSocketTransport`; :func:`areconcile` /
  :func:`afetch_stats` / :func:`amutate` are the client side, and
  ``python -m repro.service`` is the CLI entry point.
* **Multi-process fleet** -- :class:`SyncFleet` puts W server workers
  behind one supervisor, routing each dataset to its owner worker
  (:func:`owner_of`) or, without a store, to the least-loaded worker.
* **Service metrics** -- :class:`ServiceMetrics` aggregates per-session
  records (rounds, wire bytes vs. charged bits, retries) into the report
  served to ``stats`` requests.

See docs/service.md for the architecture and failure model.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    REJECT_AT_CAPACITY,
    REJECT_RATE_LIMITED,
)
from repro.service.client import (
    afetch_stats,
    amutate,
    areconcile,
    fetch_stats_blocking,
    mutate_server,
    reconcile_with_server,
)
from repro.service.dispatch import LeastLoadedDispatcher, owner_of
from repro.service.fleet import (
    SyncFleet,
    WorkerConfig,
    fleet_supported,
    install_signal_drain,
    remove_signal_drain,
)
from repro.service.hello import Hello, PeerStats
from repro.service.metrics import (
    ServiceMetrics,
    SessionRecord,
    format_stats_report,
)
from repro.service.server import SyncServer
from repro.service.transport import AsyncSocketTransport, run_party_async

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AsyncSocketTransport",
    "Hello",
    "LeastLoadedDispatcher",
    "PeerStats",
    "REJECT_AT_CAPACITY",
    "REJECT_RATE_LIMITED",
    "ServiceMetrics",
    "SessionRecord",
    "SyncFleet",
    "SyncServer",
    "WorkerConfig",
    "afetch_stats",
    "amutate",
    "areconcile",
    "fetch_stats_blocking",
    "fleet_supported",
    "format_stats_report",
    "install_signal_drain",
    "mutate_server",
    "owner_of",
    "remove_signal_drain",
    "reconcile_with_server",
    "run_party_async",
]
