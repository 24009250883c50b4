"""A live cluster node: one replica served by an asyncio :class:`SyncServer`.

:class:`ClusterNode` wires a :class:`~repro.cluster.replica.VersionedKV`
into the existing service stack:

* inbound gossip: the server hosts the replica under the ``"kv"``
  protocol; after each session the server's ``on_outcome`` hook hands the
  outcome back here and the node merges the records its side recovered
  (the kv parties themselves are pure);
* outbound gossip: :meth:`ClusterNode.agossip` runs
  :func:`~repro.service.client.areconcile` against a peer (this node plays
  ``bob``, the recovering role) and merges the returned records;
* operations: ``kv-put`` / ``kv-delete`` / ``kv-digest`` / ``kv-gossip``
  control frames (JSON payloads, answered as ``"<label>-ack"``) expose
  writes, the convergence digest, and remotely-triggered gossip -- which is
  what the ``python -m repro.cluster`` CLI drives from other processes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.cluster.replica import VersionedKV
from repro.errors import ClusterError, ServiceError
from repro.protocols.options import ReconcileOptions
from repro.protocols.party import PartyOutcome
from repro.protocols.transports import FRAME_CONTROL
from repro.service.admission import AdmissionController
from repro.service.client import areconcile
from repro.service.metrics import ServiceMetrics
from repro.service.server import SyncServer
from repro.service.transport import AsyncSocketTransport

#: Control-frame labels a cluster node answers beyond the service's own.
PUT_LABEL = "kv-put"
DELETE_LABEL = "kv-delete"
DIGEST_LABEL = "kv-digest"
GOSSIP_LABEL = "kv-gossip"


async def acontrol(host: str, port: int, label: str, body: dict[str, Any]) -> dict[str, Any]:
    """One control round-trip against a cluster node; returns the ack body."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        raise ServiceError(f"cannot reach the cluster node at {host}:{port}: {exc}") from exc
    transport = AsyncSocketTransport(reader, writer, "bob")
    try:
        await transport.send_frame(
            FRAME_CONTROL, label, payload=json.dumps(body).encode()
        )
        frame = await transport.receive_frame()
        if frame.kind != FRAME_CONTROL or frame.label != f"{label}-ack":
            raise ServiceError(
                f"expected a {label}-ack, got frame kind {frame.kind} "
                f"label {frame.label!r}"
            )
        reply = json.loads(frame.payload.decode())
    finally:
        await transport.aclose()
    if not reply.get("ok"):
        raise ClusterError(
            f"node refused {label!r}: {reply.get('error', 'unknown error')}"
        )
    return reply


class ClusterNode:
    """One live node: a replica, its sync server, and the gossip client.

    Parameters
    ----------
    name:
        Node name (appears in gossip summaries and metrics).
    replica:
        The node's :class:`~repro.cluster.replica.VersionedKV`.
    options:
        Session options for outbound gossip; defaults to the unknown-``d``
        estimator variant with the replica's seed.
    """

    def __init__(
        self,
        name: str,
        replica: VersionedKV,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        options: ReconcileOptions | None = None,
        metrics: ServiceMetrics | None = None,
        admission: AdmissionController | None = None,
        drain_deadline: float = 5.0,
    ) -> None:
        self.name = name
        self.replica = replica
        self.options = (
            options if options is not None else ReconcileOptions(seed=replica.seed)
        )
        if self.options.seed != replica.seed:
            raise ClusterError(
                f"gossip options carry seed {self.options.seed} but the replica "
                f"fingerprints with seed {replica.seed}"
            )
        self.server = SyncServer(
            {"kv": replica},
            host=host,
            port=port,
            metrics=metrics,
            admission=admission,
            drain_deadline=drain_deadline,
            on_outcome=self._absorb_outcome,
            control_handlers={
                PUT_LABEL: self._handle_put,
                DELETE_LABEL: self._handle_delete,
                DIGEST_LABEL: self._handle_digest,
                GOSSIP_LABEL: self._handle_gossip,
            },
        )

    # -- lifecycle (delegated to the server) -----------------------------------------

    async def start(self) -> None:
        await self.server.start()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    async def serve_forever(self) -> None:
        await self.server.serve_forever()

    async def adrain(self, deadline: float | None = None) -> dict[str, int]:
        return await self.server.adrain(deadline)

    async def aclose(self) -> None:
        await self.server.aclose()

    async def __aenter__(self) -> "ClusterNode":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- inbound: the server-side half of a gossip round -----------------------------

    def _absorb_outcome(self, protocol: str, role: str, outcome: PartyOutcome | None) -> None:
        if protocol != "kv" or outcome is None or not outcome.success:
            return
        self.replica.merge_records(outcome.details.get("kv_apply", ()))

    # -- outbound: initiate one gossip round with a peer -----------------------------

    async def agossip(self, host: str, port: int) -> dict[str, Any]:
        """One pairwise round with the node at ``host:port``.

        This node plays ``bob`` (recovers the peer's one-sided records);
        the peer's server absorbs the records only this node held through
        its own ``on_outcome`` hook.  Returns an accounting summary whose
        ``bits`` is the session transcript's exact charged total.
        """
        result = await areconcile(
            host, port, "kv", self.replica, role="bob", options=self.options
        )
        applied = 0
        if result.success:
            applied = self.replica.merge_records(result.details.get("kv_apply", ()))
        return {
            "ok": result.success,
            "initiator": self.name,
            "peer": f"{host}:{port}",
            "bits": result.transcript.total_bits,
            "messages": len(result.transcript.messages),
            "applied": applied,
            "in_sync": result.details.get("kv_in_sync", False),
            "digest": self.replica.digest(),
        }

    # -- control verbs (the CLI speaks these) ----------------------------------------

    async def _handle_put(self, payload: bytes) -> bytes:
        try:
            body = json.loads(payload.decode())
            record = self.replica.put(str(body["key"]), str(body["value"]))
        except (ValueError, KeyError, TypeError, ClusterError) as exc:
            return json.dumps({"ok": False, "error": str(exc)}).encode()
        return json.dumps({"ok": True, "version": record.version}).encode()

    async def _handle_delete(self, payload: bytes) -> bytes:
        try:
            body = json.loads(payload.decode())
            record = self.replica.delete(str(body["key"]))
        except (ValueError, KeyError, TypeError, ClusterError) as exc:
            return json.dumps({"ok": False, "error": str(exc)}).encode()
        return json.dumps({"ok": True, "version": record.version}).encode()

    async def _handle_digest(self, payload: bytes) -> bytes:
        return json.dumps(
            {
                "ok": True,
                "node": self.name,
                "digest": self.replica.digest(),
                "size": len(self.replica),
                "clock": self.replica.clock,
            }
        ).encode()

    async def _handle_gossip(self, payload: bytes) -> bytes:
        """Gossip with the peer named in the payload, on request."""
        try:
            body = json.loads(payload.decode())
            host = str(body.get("host", "127.0.0.1"))
            port = int(body["port"])
            summary = await self.agossip(host, port)
        except (ValueError, KeyError, TypeError, ClusterError, ServiceError) as exc:
            return json.dumps({"ok": False, "error": str(exc)}).encode()
        return json.dumps(summary).encode()
