"""The asyncio sync server: many concurrent sessions on one event loop.

:class:`SyncServer` accepts any number of simultaneous connections.  Each
connection starts with the hello/ack handshake of :mod:`repro.service.hello`
(protocol name, client role, wire options, public size statistics), after
which the server builds its side of the named protocol from the registry
and drives it with :func:`~repro.service.transport.run_party_async` -- one
server-side party per connection, all multiplexed on a single event loop.  Blocking
:class:`~repro.protocols.transports.SocketTransport` clients interoperate:
the frame format is shared.

The server is data-oriented: it is constructed with a mapping from protocol
name to the dataset it serves for that protocol (its "side" of every
session).  By default the server plays the role the client did not ask for
-- a ``role="bob"`` client recovers the server's dataset, a ``role="alice"``
client pushes its own.

Per-session failures (a party raising, a codec over-running its budget, a
client vanishing mid-frame) are contained: the connection is torn down, the
failure is recorded in the shared :class:`~repro.service.metrics.ServiceMetrics`,
and the server keeps serving.  A ``stats`` control request returns the
metrics report without running a session.

Concurrency note: the GF(p) field kernel and the cell store are stateless
and one each, so sessions interleaved on the event loop share no tier
choice; every per-session option travels inside the session's own
:class:`~repro.protocols.options.ReconcileOptions`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket as socket_module
from typing import Any, Awaitable, Callable, Mapping

from repro.errors import ReproError, ServiceError, StoreError
from repro.service.admission import AdmissionController, rejection_message
from repro.protocols import registry
from repro.protocols.options import ReconcileOptions
from repro.protocols.transports import FRAME_CONTROL, Frame
from repro.service.hello import (
    ACK_LABEL,
    HELLO_LABEL,
    MUTATE_ACK_LABEL,
    MUTATE_LABEL,
    SERVED_INPUT_KINDS,
    STATS_LABEL,
    Hello,
    PeerStats,
    ack_payload,
    error_payload,
    mutate_ack_payload,
    options_from_wire,
    parse_mutate,
    placeholder_input,
)
from repro.service.metrics import ServiceMetrics, SessionRecord
from repro.service.transport import (
    AsyncSocketTransport,
    frame_from_bytes,
    run_party_async,
)
from repro.store import AntiEntropyLoop, SketchConfig, SketchStore, StoreView
from repro.store.parties import stored_ibf_party

logger = logging.getLogger(__name__)


class SyncServer:
    """Serve reconciliation sessions for a set of named datasets.

    A session's options are the fields of the client's hello
    (:func:`~repro.service.hello.options_from_wire`): facts about the inputs
    and the tier names, never a sizing choice, so a hello that names a hash
    count or a slack factor is refused.  Every outgoing message is held to
    its charged size: one over its byte budget raises
    :class:`~repro.protocols.wire.WireAccountingError` and fails the session.

    Parameters
    ----------
    datasets:
        ``protocol name -> server-side input``.  The input type must match
        the protocol's registered ``input_kind`` (a set, a
        :class:`~repro.core.setsofsets.types.SetOfSets`, or a
        :class:`~repro.db.table.BinaryTable` reduced through a set-of-sets
        protocol); only protocols with an entry are served.
    host, port:
        Listen address; port 0 picks a free port (read :attr:`port` after
        :meth:`start`).
    latency:
        Simulated one-way wire delay per frame (benchmarks only).
    metrics:
        Optional shared :class:`ServiceMetrics`; one is created otherwise.
    store:
        Optional :class:`~repro.store.SketchStore`.  When present, ``ibf``
        sessions over plain set datasets are answered from the store's live
        sketches (O(d) per sync instead of O(n) re-encoding), ``mutate``
        control frames are accepted, and -- for a durable store -- the
        anti-entropy loop can persist dirty datasets in the background.
        The store's metrics sink defaults to this server's.
    anti_entropy_interval:
        Seconds between background snapshot sweeps; requires a durable
        ``store``.  ``None`` (default) disables the loop.
    drain_deadline:
        How long :meth:`aclose` waits for in-flight sessions before
        cancelling them (see :meth:`adrain`).
    admission:
        Optional :class:`~repro.service.admission.AdmissionController`.
        When present, session hellos beyond the per-client rate or the
        in-flight cap are shed with a coded hello-ack error frame instead
        of being served (stats and mutate requests bypass admission).  In
        a fleet the *supervisor* runs admission; single-server deployments
        pass a controller here.
    on_mutation:
        Optional callback invoked after every applied mutation with
        ``(dataset_name, inserted_keys, deleted_keys)`` -- *before* the
        mutate-ack is sent.  Fleet workers use it to report dataset deltas
        to the supervisor, which keeps the authoritative copies it hands a
        restarted worker.
    on_outcome:
        Optional callback invoked with ``(protocol_name, server_role,
        outcome)`` after every completed session party.  Protocols whose
        parties are pure (the ``kv`` gossip round) return the state change
        in the outcome's details; this hook is where the owner applies it
        (see :class:`~repro.cluster.node.ClusterNode`).
    control_handlers:
        Optional ``label -> async handler`` mapping for extra control
        frames.  A matching frame's payload is passed to the handler and
        the returned bytes are sent back as ``"<label>-ack"``; cluster
        nodes register their digest/gossip/put verbs here without the
        server knowing anything about them.
    """

    def __init__(
        self,
        datasets: Mapping[str, Any],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        latency: float = 0.0,
        metrics: ServiceMetrics | None = None,
        store: SketchStore | None = None,
        anti_entropy_interval: float | None = None,
        drain_deadline: float = 5.0,
        admission: AdmissionController | None = None,
        on_mutation: Callable[[str, list[int], list[int]], None] | None = None,
        on_outcome: Callable[[str, str, Any], None] | None = None,
        control_handlers: Mapping[str, Callable[[bytes], Awaitable[bytes]]]
        | None = None,
    ) -> None:
        self.datasets = dict(datasets)
        self.host = host
        self._requested_port = port
        self.latency = latency
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.store = store
        if store is not None and store.metrics is None:
            store.metrics = self.metrics
        if anti_entropy_interval is not None and (store is None or not store.durable):
            raise ServiceError(
                "anti_entropy_interval requires a durable store "
                "(SketchStore with a root directory)"
            )
        self.anti_entropy_interval = anti_entropy_interval
        self.drain_deadline = drain_deadline
        self.admission = admission
        self.on_mutation = on_mutation
        self.on_outcome = on_outcome
        self.control_handlers = dict(control_handlers or {})
        self._server: asyncio.AbstractServer | None = None
        self._sessions: set[asyncio.Task] = set()
        self._anti_entropy_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (does not block)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        if self.anti_entropy_interval is not None:
            loop = AntiEntropyLoop(
                self.store, interval=self.anti_entropy_interval, metrics=self.metrics
            )
            self._anti_entropy_task = asyncio.create_task(loop.run())

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def adrain(self, deadline: float | None = None) -> dict[str, int]:
        """Gracefully shut down: stop accepting, finish in-flight sessions.

        The listener closes first (new connections are refused), then
        in-flight sessions get up to ``deadline`` seconds to complete;
        stragglers are cancelled.  Returns ``{"drained": ..., "aborted": ...}``
        and records the same split in the metrics.  A durable store is
        flushed so nothing rides only on the journal after shutdown.
        """
        if deadline is None:
            deadline = self.drain_deadline
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._anti_entropy_task is not None:
            self._anti_entropy_task.cancel()
            try:
                await self._anti_entropy_task
            except asyncio.CancelledError:
                pass
            self._anti_entropy_task = None
        pending = {task for task in self._sessions if not task.done()}
        drained = aborted = 0
        if pending:
            done, still_running = await asyncio.wait(pending, timeout=deadline)
            drained, aborted = len(done), len(still_running)
            for task in still_running:
                task.cancel()
            if still_running:
                await asyncio.gather(*still_running, return_exceptions=True)
        self.metrics.record_drain(drained, aborted)
        if self.store is not None and self.store.durable:
            try:
                self.store.flush()
            except (OSError, ReproError):
                pass  # journal still protects the unflushed state
        return {"drained": drained, "aborted": aborted}

    async def aclose(self) -> None:
        await self.adrain(self.drain_deadline)

    async def __aenter__(self) -> "SyncServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- per-connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The outgoing role is unknown until the hello names the client's;
        # it is rewritten below before any session frame is sent.
        transport = AsyncSocketTransport(reader, writer, "bob", latency=self.latency)
        await self._serve_connection(transport)

    async def serve_handoff(
        self, sock: socket_module.socket, initial: bytes = b""
    ) -> None:
        """Serve one already-accepted connection (the fleet worker path).

        ``sock`` is a connected socket received from the supervisor via FD
        passing; ``initial`` holds the raw bytes of the first frame the
        supervisor already consumed while routing, replayed here so the
        session transcript is byte-identical to a directly-accepted one.
        """
        try:
            reader, writer = await asyncio.open_connection(sock=sock)
        except OSError:
            sock.close()  # peer vanished between accept and handoff
            return
        transport = AsyncSocketTransport(reader, writer, "bob", latency=self.latency)
        first_frame = None
        if initial:
            transport.bytes_received += len(initial)
            try:
                first_frame = frame_from_bytes(initial)
            except ReproError:
                await transport.aclose()
                return  # the supervisor only hands off frames it parsed
        await self._serve_connection(transport, first_frame)

    async def _serve_connection(
        self, transport: AsyncSocketTransport, first_frame: Frame | None = None
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._sessions.add(task)
            task.add_done_callback(self._sessions.discard)
        try:
            await self._serve_one(transport, first_frame)
        except ReproError:
            pass  # recorded where it happened; the connection is done either way
        except asyncio.CancelledError:
            return  # server shutting down mid-session; nothing left to serve
        except (OSError, EOFError):
            pass  # client vanished mid-frame; the session record has the failure
        except Exception:
            # Anything else is a bug, not a client misbehaving: keep serving,
            # but say so instead of swallowing it.
            logger.exception("unexpected error while serving a connection")
        finally:
            await transport.aclose()

    async def _serve_one(
        self, transport: AsyncSocketTransport, first_frame: Frame | None = None
    ) -> None:
        frame = (
            first_frame if first_frame is not None else await transport.receive_frame()
        )
        if frame.kind == FRAME_CONTROL and frame.label == MUTATE_LABEL:
            await self._handle_mutate(transport, frame)
            return
        if frame.kind == FRAME_CONTROL and frame.label in self.control_handlers:
            reply = await self.control_handlers[frame.label](frame.payload)
            await transport.send_frame(
                FRAME_CONTROL, f"{frame.label}-ack", payload=reply
            )
            return
        if frame.kind != FRAME_CONTROL or frame.label != HELLO_LABEL:
            await self._refuse(transport, "expected a hello control frame")
            return
        try:
            hello = Hello.from_json(frame.payload)
        except ServiceError as exc:
            await self._refuse(transport, str(exc))
            return

        if hello.want_stats:
            self.metrics.record_stats_request()
            await transport.send_frame(
                FRAME_CONTROL,
                STATS_LABEL,
                payload=json.dumps(self.metrics.report()).encode(),
            )
            return

        if self.admission is not None:
            peer = transport.writer.get_extra_info("peername")
            client = peer[0] if isinstance(peer, tuple) else str(peer or "unknown")
            code = self.admission.try_admit(client)
            if code is not None:
                self.metrics.record_shed(code)
                await self._refuse(transport, rejection_message(code), code=code)
                return
            try:
                await self._serve_session(transport, hello)
            finally:
                self.admission.release()
            return
        await self._serve_session(transport, hello)

    async def _serve_session(
        self, transport: AsyncSocketTransport, hello: Hello
    ) -> None:
        self.metrics.record_start()
        try:
            spec, dataset, options = self._negotiate(hello)
        except ServiceError as exc:
            self.metrics.record_rejected()
            await self._refuse(transport, str(exc))
            return

        server_role = "bob" if hello.role == "alice" else "alice"
        transport.role = server_role
        await transport.send_frame(
            FRAME_CONTROL, ACK_LABEL, payload=ack_payload(options, PeerStats.of(dataset))
        )

        outcome = None
        error: str | None = None
        transcript = None
        try:
            view = self._store_view(spec, hello, options, dataset)
            if view is not None:
                party = stored_ibf_party(server_role, view, options.difference_bound)
            else:
                placeholder = placeholder_input(spec.input_kind, hello.stats)
                if server_role == "alice":
                    build_alice, build_bob = dataset, placeholder
                else:
                    build_alice, build_bob = placeholder, dataset
                alice_party, bob_party = spec.build(build_alice, build_bob, options)
                party = alice_party if server_role == "alice" else bob_party
            outcome, transcript = await run_party_async(party, transport)
            if self.on_outcome is not None:
                self.on_outcome(spec.name, server_role, outcome)
        except asyncio.CancelledError:
            raise
        except (ReproError, OSError, EOFError) as exc:
            # The failure modes a session can legitimately produce: protocol
            # and codec errors, and the peer disappearing.  Anything else
            # propagates unlabelled and is logged by the connection handler.
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self.metrics.record_session(
                SessionRecord(
                    spec.name,
                    server_role,
                    bool(outcome is not None and outcome.success),
                    rounds=transcript.num_rounds if transcript is not None else 0,
                    messages=len(transcript) if transcript is not None else 0,
                    bits_charged=(
                        transcript.total_bits if transcript is not None else 0
                    ),
                    wire_bytes_sent=transport.bytes_sent,
                    wire_bytes_received=transport.bytes_received,
                    attempts=outcome.attempts if outcome is not None else 1,
                    error=error,
                )
            )

    def _store_view(
        self, spec: Any, hello: Hello, options: Any, dataset: Any
    ) -> StoreView | None:
        """The store-backed view for this session, or ``None`` to build the
        party from scratch.

        Only the plain-set ``ibf`` protocol is served from the store.
        """
        if (
            self.store is None
            or spec.name != "ibf"
            or not isinstance(dataset, (set, frozenset))
        ):
            return None
        config = SketchConfig.from_options(options)
        return StoreView(self.store, hello.protocol, config, dataset)

    async def _handle_mutate(
        self, transport: AsyncSocketTransport, frame: Frame
    ) -> None:
        """Apply a client-sent delta to a dataset and its live sketches.

        The store is updated *before* the dataset: a store failure leaves
        the dataset untouched (and invalidates the store entry), so the two
        can never silently diverge.
        """
        try:
            name, inserted, deleted = parse_mutate(frame.payload)
            if self.store is None:
                raise ServiceError("this server has no sketch store; cannot mutate")
            dataset = self.datasets.get(name)
            if dataset is None:
                raise ServiceError(f"no dataset configured for {name!r}")
            if not isinstance(dataset, set) or isinstance(dataset, frozenset):
                raise ServiceError(
                    f"dataset {name!r} is a {type(dataset).__name__}; "
                    "only mutable set datasets accept mutations"
                )
            eff_ins = sorted(key for key in inserted if key not in dataset)
            eff_del = sorted(key for key in deleted if key in dataset)
            self.store.apply(name, eff_ins, eff_del, dataset=dataset)
            dataset.difference_update(eff_del)
            dataset.update(eff_ins)
        except (ServiceError, StoreError) as exc:
            self.metrics.record_mutation_rejected()
            await transport.send_frame(
                FRAME_CONTROL, MUTATE_ACK_LABEL, payload=error_payload(str(exc))
            )
            return
        self.metrics.record_mutation(len(eff_ins), len(eff_del))
        if self.on_mutation is not None:
            self.on_mutation(name, eff_ins, eff_del)
        await transport.send_frame(
            FRAME_CONTROL,
            MUTATE_ACK_LABEL,
            payload=mutate_ack_payload(len(eff_ins), len(eff_del), len(dataset)),
        )

    def _negotiate(
        self, hello: Hello
    ) -> tuple[type[registry.Protocol], Any, ReconcileOptions]:
        """Resolve the hello into ``(spec, dataset, options)`` or refuse."""
        if hello.protocol not in registry.names():
            raise ServiceError(f"unknown protocol {hello.protocol!r}")
        spec = registry.get(hello.protocol)
        if spec.input_kind not in SERVED_INPUT_KINDS:
            raise ServiceError(
                f"protocol {hello.protocol!r} has input kind {spec.input_kind!r}, "
                f"which this service does not serve"
            )
        if hello.protocol not in self.datasets:
            raise ServiceError(f"no dataset configured for {hello.protocol!r}")
        options = options_from_wire(hello.options)
        dataset = self.datasets[hello.protocol]
        self._check_dataset_kind(hello.protocol, spec.input_kind, dataset)
        return spec, dataset, options

    @staticmethod
    def _check_dataset_kind(protocol: str, input_kind: str, dataset: Any) -> None:
        """Refuse at hello time when the configured dataset cannot feed the
        protocol's party builder (a misconfiguration would otherwise escape
        as an AttributeError after a successful ack)."""
        if input_kind == "set":
            valid = isinstance(dataset, (set, frozenset))
        elif input_kind == "kv":
            # The kv parties read the replica's merge/view seam (duck-typed
            # so the service layer needs no import from repro.cluster).
            valid = all(
                hasattr(dataset, name) for name in ("merge_records", "view_for")
            )
        else:  # set_of_sets: the builders read the public size statistics
            valid = all(
                hasattr(dataset, name)
                for name in ("num_children", "total_elements", "max_child_size")
            )
        if not valid:
            raise ServiceError(
                f"dataset configured for {protocol!r} is a "
                f"{type(dataset).__name__}, which cannot feed a protocol "
                f"with input kind {input_kind!r}"
            )

    async def _refuse(
        self, transport: AsyncSocketTransport, message: str, code: str | None = None
    ) -> None:
        try:
            await transport.send_frame(
                FRAME_CONTROL, ACK_LABEL, payload=error_payload(message, code)
            )
        except ReproError:
            pass  # client already gone
