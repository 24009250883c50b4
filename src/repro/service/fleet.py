"""The multi-process sync fleet: one supervisor, W :class:`SyncServer` workers.

The single-server :class:`~repro.service.server.SyncServer` multiplexes every
session on one event loop, so its ceiling is one CPU no matter how fast each
decode is.  The fleet lifts that ceiling with a supervisor process that owns
the listening socket and W worker processes each running today's server loop:

* the **supervisor** accepts every connection, reads exactly the first
  frame with raw socket recvs (later bytes stay in the kernel buffer, so
  nothing is lost in the handoff), routes on it, and passes the connected
  descriptor to a worker over the control channel with SCM_RIGHTS FD
  passing (``multiprocessing.reduction.send_handle``);
* **store-backed fleets** partition datasets across workers by owner
  (:func:`repro.service.dispatch.owner_of`), so ``mutate`` frames and
  sessions for a dataset always land on the worker holding its live
  sketches and journal partition;
* **storeless fleets** replicate the datasets to every worker and spread
  sessions with least-loaded-of-d dispatch
  (:class:`~repro.service.dispatch.LeastLoadedDispatcher`);
* **admission control** (:mod:`repro.service.admission`) runs in the
  supervisor, before any worker is touched: shed hellos get a coded
  hello-ack error frame and never consume a worker slot -- the fleet
  rejects under overload instead of queueing unboundedly;
* each worker reports per-session completions, dataset mutations, and
  metrics snapshots back over its duplex pipe; ``stats`` requests are
  answered by the supervisor with the :meth:`ServiceMetrics.merge` of
  every worker's snapshot plus its own, with a per-worker breakdown;
* a **crashed worker is restarted** and rejoins: the supervisor holds the
  authoritative dataset copies (updated from mutation reports), hands the
  replacement worker its partition, and the worker's durable store
  recovers the live sketches via snapshot-plus-journal replay;
* ``adrain`` is a **rolling drain** (one worker at a time finishes its
  in-flight sessions and exits) and SIGTERM/SIGINT are wired to it by
  :func:`install_signal_drain`, shared with the single-server CLI path.

The wire protocol is unchanged: clients speak to a fleet exactly as they
speak to a single server, and a served session's transcript is
byte-identical to the single-server one (pinned by the fleet tests).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import multiprocessing
import os
import signal
import socket
from dataclasses import dataclass, field
from multiprocessing import reduction
from typing import Any, Callable, Mapping

from repro.errors import ReproError, ServiceError
from repro.protocols.transports import (
    FRAME_CONTROL,
    FRAME_HEADER,
    pack_frame,
    parse_frame_header,
)
from repro.service.admission import (
    REJECT_AT_CAPACITY,
    AdmissionController,
    AdmissionPolicy,
    rejection_message,
)
from repro.service.dispatch import LeastLoadedDispatcher, owner_of
from repro.service.hello import (
    ACK_LABEL,
    HELLO_LABEL,
    MUTATE_ACK_LABEL,
    MUTATE_LABEL,
    STATS_LABEL,
    Hello,
    error_payload,
    parse_mutate,
)
from repro.service.metrics import ServiceMetrics
from repro.service.server import SyncServer
from repro.service.transport import frame_from_bytes
from repro.store import AntiEntropyLoop, SketchStore

logger = logging.getLogger(__name__)

#: How long a freshly-spawned worker gets to import, warm its store
#: partition, and report ready.
_READY_TIMEOUT = 60.0
#: How long the supervisor waits for one worker's stats snapshot before
#: reporting the fleet without it.
_STATS_TIMEOUT = 10.0


def fleet_supported() -> bool:
    """Whether this platform can run the fleet (POSIX FD passing)."""
    return os.name == "posix" and hasattr(socket, "SCM_RIGHTS")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker process needs (picklable, sent at spawn)."""

    worker_id: int
    datasets: dict[str, Any]
    store_root: str | None = None
    latency: float = 0.0
    drain_deadline: float = 5.0
    anti_entropy_interval: float | None = None


# ---------------------------------------------------------------------------
# Worker process: a SyncServer with no listener, fed over the control channel
# ---------------------------------------------------------------------------


def _worker_main(config: WorkerConfig, conn: Any) -> None:
    """Entry point of one worker process (must stay module-level: spawn
    pickles it by qualified name)."""
    # Workers must not react to the terminal's SIGINT: the supervisor
    # coordinates shutdown over the control channel (drain, then stop).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        asyncio.run(_worker_body(config, conn))
    finally:
        conn.close()


async def _worker_body(config: WorkerConfig, conn: Any) -> None:
    loop = asyncio.get_running_loop()
    metrics = ServiceMetrics()
    store = SketchStore(config.store_root) if config.store_root else None
    server = SyncServer(
        config.datasets,
        latency=config.latency,
        metrics=metrics,
        store=store,
        drain_deadline=config.drain_deadline,
        on_mutation=lambda name, ins, dels: _send_quiet(
            conn, {"type": "mutated", "dataset": name, "insert": ins, "delete": dels}
        ),
    )
    if store is not None:
        # Warm every owned set dataset so the live sketch exists (replaying
        # the journal of a previous incarnation if there is one), then
        # flush: with a baseline snapshot on disk, a crash from here on is
        # recoverable by snapshot-plus-journal replay.
        for name, dataset in config.datasets.items():
            if isinstance(dataset, (set, frozenset)):
                store.size_of(name, dataset)
        store.flush()
    anti_entropy_task: asyncio.Task | None = None
    if config.anti_entropy_interval is not None and store is not None and store.durable:
        anti_loop = AntiEntropyLoop(
            store, interval=config.anti_entropy_interval, metrics=metrics
        )
        anti_entropy_task = asyncio.create_task(anti_loop.run())

    stop = asyncio.Event()
    tasks: set[asyncio.Task] = set()

    async def serve_handoff(sock: socket.socket, meta: dict[str, Any]) -> None:
        try:
            await server.serve_handoff(sock, meta.get("initial", b""))
        finally:
            _send_quiet(
                conn, {"type": "done", "admitted": bool(meta.get("admitted"))}
            )

    async def drain(meta: dict[str, Any]) -> None:
        if anti_entropy_task is not None:
            anti_entropy_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await anti_entropy_task
        summary = await server.adrain(meta.get("deadline"))
        _send_quiet(
            conn,
            {
                "type": "drained",
                "summary": summary,
                "snapshot": metrics.snapshot(),
                "report": metrics.report(),
            },
        )
        stop.set()

    def track(coro: Any) -> None:
        task = loop.create_task(coro)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    def on_control() -> None:
        try:
            while conn.poll():
                message = conn.recv()
                kind = message.get("type")
                if kind == "conn":
                    # The descriptor's SCM_RIGHTS bytes follow the metadata
                    # immediately; consume them before polling again.
                    fd = reduction.recv_handle(conn)
                    track(serve_handoff(socket.socket(fileno=fd), message))
                elif kind == "stats-request":
                    _send_quiet(
                        conn,
                        {
                            "type": "stats",
                            "id": message.get("id"),
                            "snapshot": metrics.snapshot(),
                            "report": metrics.report(),
                        },
                    )
                elif kind == "drain":
                    track(drain(message))
                elif kind == "stop":
                    stop.set()
        except (EOFError, OSError):
            # Supervisor is gone; nothing to serve for, nothing to report to.
            loop.remove_reader(conn.fileno())
            stop.set()

    loop.add_reader(conn.fileno(), on_control)
    _send_quiet(conn, {"type": "ready", "pid": os.getpid()})
    try:
        await stop.wait()
    finally:
        loop.remove_reader(conn.fileno())
        if anti_entropy_task is not None:
            anti_entropy_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await anti_entropy_task
        for task in list(tasks):
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


def _send_quiet(conn: Any, message: dict[str, Any]) -> None:
    """Send on the control channel, tolerating a vanished supervisor."""
    try:
        conn.send(message)
    except (OSError, ValueError, BrokenPipeError):
        pass


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    """The supervisor's view of one worker process."""

    worker_id: int
    process: Any
    conn: Any
    ready: asyncio.Event
    inflight: int = 0
    admitted_inflight: int = 0
    draining: bool = False
    reader_attached: bool = False
    sentinel_attached: bool = False
    stats_futures: dict[int, asyncio.Future] = field(default_factory=dict)
    drained_future: asyncio.Future | None = None
    final_report: dict[str, Any] | None = None
    final_snapshot: dict[str, Any] | None = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def dispatchable(self) -> bool:
        return self.alive and self.ready.is_set() and not self.draining

    def send_connection(self, message: dict[str, Any], sock: socket.socket) -> None:
        """Metadata first, then the descriptor: the worker consumes the
        SCM_RIGHTS bytes right after parsing the metadata, keeping the
        channel framed."""
        self.conn.send(message)
        reduction.send_handle(self.conn, sock.fileno(), self.process.pid)


class SyncFleet:
    """A supervisor plus ``workers`` :class:`SyncServer` processes.

    Parameters
    ----------
    datasets:
        ``protocol name -> dataset``, exactly as for :class:`SyncServer`.
        With a ``store_root`` the fleet *partitions* them across workers by
        :func:`~repro.service.dispatch.owner_of`; without one every worker
        *replicates* all of them and sessions spread by least-loaded-of-d.
        The supervisor keeps the authoritative copies, updated from worker
        mutation reports, and hands a restarted worker its current
        partition.
    workers:
        Fleet size ``W``.
    store_root:
        Root directory for the durable per-worker sketch stores (worker
        ``i`` uses ``store_root/worker-i``, so a restarted worker finds its
        own snapshots and journal).  Enables ownership routing and
        ``mutate``.
    admission:
        An :class:`~repro.service.admission.AdmissionPolicy` (or a
        prebuilt controller); ``None`` admits everything.
    per_worker_inflight:
        Cap on concurrently dispatched sessions per worker; beyond it the
        supervisor sheds with ``at-capacity`` instead of queueing.
    dispatch_choices:
        The ``d`` of least-loaded-of-d dispatch (replicated fleets).
    restart_workers:
        Respawn a crashed worker with its current partition (default).
    handshake_timeout:
        Seconds the supervisor waits for a connection's first frame.
    """

    def __init__(
        self,
        datasets: Mapping[str, Any],
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        latency: float = 0.0,
        store_root: str | None = None,
        admission: AdmissionPolicy | AdmissionController | None = None,
        per_worker_inflight: int | None = None,
        dispatch_choices: int = 2,
        seed: int = 2018,
        drain_deadline: float = 5.0,
        handshake_timeout: float = 20.0,
        restart_workers: bool = True,
        anti_entropy_interval: float | None = None,
        metrics: ServiceMetrics | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError("a fleet needs at least one worker")
        self.datasets = dict(datasets)
        self.workers = workers
        self.host = host
        self._requested_port = port
        self.latency = latency
        self.store_root = store_root
        self.seed = seed
        self.drain_deadline = drain_deadline
        self.handshake_timeout = handshake_timeout
        self.restart_workers = restart_workers
        self.anti_entropy_interval = anti_entropy_interval
        self.per_worker_inflight = per_worker_inflight
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if isinstance(admission, AdmissionController):
            self.admission: AdmissionController | None = admission
        elif isinstance(admission, AdmissionPolicy) and admission.enabled:
            self.admission = AdmissionController(admission)
        else:
            self.admission = None
        self.partitioned = store_root is not None
        self._dispatcher = (
            None
            if self.partitioned
            else LeastLoadedDispatcher(
                workers,
                choices=dispatch_choices,
                per_worker_budget=per_worker_inflight,
                seed=seed,
            )
        )
        self._context = multiprocessing.get_context("spawn")
        self._handles: dict[int, _WorkerHandle] = {}
        self._listener: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._accept_task: asyncio.Task | None = None
        self._routing: set[asyncio.Task] = set()
        self._background: set[asyncio.Task] = set()
        self._stats_counter = 0
        self._closing = False
        self._drain_summary: dict[str, int] | None = None

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the workers, wait until all report ready, bind, accept."""
        if not fleet_supported():
            raise ServiceError(
                "the sync fleet needs POSIX SCM_RIGHTS descriptor passing; "
                "run a single SyncServer on this platform"
            )
        self._loop = asyncio.get_running_loop()
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        await self.wait_until_ready(_READY_TIMEOUT)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(128)
        listener.setblocking(False)
        self._listener = listener
        self._accept_task = self._loop.create_task(self._accept_loop())

    @property
    def port(self) -> int:
        if self._listener is None:
            raise ServiceError("fleet is not started")
        return int(self._listener.getsockname()[1])

    async def wait_until_ready(self, timeout: float = _READY_TIMEOUT) -> None:
        """Wait until every live worker has reported ready."""
        waiters = [
            handle.ready.wait()
            for handle in self._handles.values()
            if handle.alive and not handle.ready.is_set()
        ]
        if not waiters:
            return
        try:
            await asyncio.wait_for(asyncio.gather(*waiters), timeout)
        except asyncio.TimeoutError as exc:
            raise ServiceError(
                f"fleet workers did not become ready within {timeout}s"
            ) from exc

    async def serve_forever(self) -> None:
        if self._listener is None:
            await self.start()
        # Accepting runs in _accept_task; this just parks until cancelled.
        await asyncio.Event().wait()

    async def adrain(self, deadline: float | None = None) -> dict[str, int]:
        """Rolling drain: stop accepting, then drain workers one at a time.

        Each worker finishes (or aborts at its deadline) its in-flight
        sessions, reports its final metrics snapshot -- folded into the
        supervisor's, so post-shutdown ``report()`` still shows fleet
        totals -- and exits.  Returns the summed drain summary.
        """
        if self._closing:
            return dict(self._drain_summary or {"drained": 0, "aborted": 0})
        self._closing = True
        if deadline is None:
            deadline = self.drain_deadline
        if self._accept_task is not None:
            self._accept_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._accept_task
            self._accept_task = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._routing:
            await asyncio.gather(*self._routing, return_exceptions=True)
        totals = {"drained": 0, "aborted": 0}
        for worker_id in sorted(self._handles):
            handle = self._handles[worker_id]
            handle.draining = True
            if not handle.alive:
                continue
            assert self._loop is not None
            handle.drained_future = self._loop.create_future()
            try:
                handle.conn.send({"type": "drain", "deadline": deadline})
                reply = await asyncio.wait_for(
                    handle.drained_future, deadline + _STATS_TIMEOUT
                )
            except (asyncio.TimeoutError, OSError, ValueError):
                handle.process.terminate()
            else:
                summary = reply.get("summary") or {}
                totals["drained"] += int(summary.get("drained", 0))
                totals["aborted"] += int(summary.get("aborted", 0))
                handle.final_snapshot = reply.get("snapshot")
                handle.final_report = reply.get("report")
                if handle.final_snapshot:
                    self.metrics.merge(handle.final_snapshot)
            await self._join_worker(handle, timeout=_STATS_TIMEOUT)
            self._detach(handle)
        self._drain_summary = totals
        return totals

    async def aclose(self) -> None:
        await self.adrain(self.drain_deadline)

    async def __aenter__(self) -> "SyncFleet":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # -- worker management ----------------------------------------------------------

    def _datasets_for(self, worker_id: int) -> dict[str, Any]:
        if not self.partitioned:
            return dict(self.datasets)
        return {
            name: data
            for name, data in self.datasets.items()
            if owner_of(name, self.workers, self.seed) == worker_id
        }

    def _store_root_for(self, worker_id: int) -> str | None:
        if self.store_root is None:
            return None
        return os.path.join(self.store_root, f"worker-{worker_id}")

    def owner_for(self, name: str) -> int:
        """The worker that owns dataset ``name`` (partitioned fleets)."""
        return owner_of(name, self.workers, self.seed)

    def _spawn(self, worker_id: int) -> None:
        assert self._loop is not None
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        config = WorkerConfig(
            worker_id=worker_id,
            datasets=self._datasets_for(worker_id),
            store_root=self._store_root_for(worker_id),
            latency=self.latency,
            drain_deadline=self.drain_deadline,
            anti_entropy_interval=self.anti_entropy_interval,
        )
        process = self._context.Process(
            target=_worker_main, args=(config, child_conn), daemon=True
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(
            worker_id, process, parent_conn, ready=asyncio.Event()
        )
        self._handles[worker_id] = handle
        self._loop.add_reader(
            parent_conn.fileno(), self._on_worker_readable, worker_id
        )
        handle.reader_attached = True
        self._loop.add_reader(process.sentinel, self._on_worker_exit, worker_id)
        handle.sentinel_attached = True

    def _detach(self, handle: _WorkerHandle) -> None:
        assert self._loop is not None
        if handle.reader_attached:
            with contextlib.suppress(OSError, ValueError):
                self._loop.remove_reader(handle.conn.fileno())
            handle.reader_attached = False
        if handle.sentinel_attached:
            with contextlib.suppress(OSError, ValueError):
                self._loop.remove_reader(handle.process.sentinel)
            handle.sentinel_attached = False
        with contextlib.suppress(OSError):
            handle.conn.close()

    async def _join_worker(self, handle: _WorkerHandle, timeout: float) -> None:
        waited = 0.0
        while handle.process.is_alive() and waited < timeout:
            await asyncio.sleep(0.05)
            waited += 0.05
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=1.0)

    def _on_worker_readable(self, worker_id: int) -> None:
        handle = self._handles.get(worker_id)
        if handle is None:
            return
        try:
            while handle.conn.poll():
                self._on_worker_message(handle, handle.conn.recv())
        except (EOFError, OSError):
            if handle.reader_attached:
                assert self._loop is not None
                with contextlib.suppress(OSError, ValueError):
                    self._loop.remove_reader(handle.conn.fileno())
                handle.reader_attached = False

    def _on_worker_message(
        self, handle: _WorkerHandle, message: dict[str, Any]
    ) -> None:
        kind = message.get("type")
        if kind == "ready":
            handle.ready.set()
        elif kind == "done":
            handle.inflight = max(0, handle.inflight - 1)
            if self._dispatcher is not None:
                self._dispatcher.complete(handle.worker_id)
            if message.get("admitted"):
                handle.admitted_inflight = max(0, handle.admitted_inflight - 1)
                if self.admission is not None:
                    self.admission.release()
        elif kind == "mutated":
            dataset = self.datasets.get(message.get("dataset"))
            if isinstance(dataset, set):
                dataset.difference_update(message.get("delete", ()))
                dataset.update(message.get("insert", ()))
        elif kind == "stats":
            future = handle.stats_futures.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result(message)
        elif kind == "drained":
            if handle.drained_future is not None and not handle.drained_future.done():
                handle.drained_future.set_result(message)

    def _on_worker_exit(self, worker_id: int) -> None:
        handle = self._handles.get(worker_id)
        if handle is None:
            return
        if handle.sentinel_attached:
            assert self._loop is not None
            with contextlib.suppress(OSError, ValueError):
                self._loop.remove_reader(handle.process.sentinel)
            handle.sentinel_attached = False
        if self._closing or handle.draining:
            return
        # A real crash: its in-flight sessions died with it.  Give their
        # admission slots back, forget its load, and (by default) respawn
        # it with the supervisor's current view of its partition -- the
        # replacement recovers the live sketches via journal replay.
        logger.warning("fleet worker %d exited unexpectedly; restarting", worker_id)
        self._detach(handle)
        handle.process.join(timeout=1.0)
        if handle.admitted_inflight and self.admission is not None:
            self.admission.release(handle.admitted_inflight)
        if self._dispatcher is not None:
            self._dispatcher.reset(worker_id)
        for future in handle.stats_futures.values():
            if not future.done():
                future.set_exception(ServiceError("worker exited"))
        handle.stats_futures.clear()
        if not self.restart_workers:
            return
        self.metrics.record_worker_restart()
        self._spawn(worker_id)

    # -- accept / route -------------------------------------------------------------

    async def _accept_loop(self) -> None:
        assert self._loop is not None and self._listener is not None
        while True:
            try:
                client, address = await self._loop.sock_accept(self._listener)
            except asyncio.CancelledError:
                raise
            except OSError:
                return  # listener closed under us during shutdown
            client.setblocking(False)
            task = self._loop.create_task(self._route_connection(client, address))
            self._routing.add(task)
            task.add_done_callback(self._routing.discard)

    async def _route_connection(
        self, client: socket.socket, address: tuple[Any, ...]
    ) -> None:
        try:
            await self._route_checked(client, address)
        except asyncio.CancelledError:
            client.close()
            raise
        except Exception:
            logger.exception("unexpected error while routing a connection")
            client.close()

    async def _route_checked(
        self, client: socket.socket, address: tuple[Any, ...]
    ) -> None:
        assert self._loop is not None
        try:
            initial = await asyncio.wait_for(
                self._read_one_frame(client), self.handshake_timeout
            )
            frame = frame_from_bytes(initial)
        except (ReproError, OSError, EOFError, asyncio.TimeoutError):
            # Nothing parseable arrived; there is no frame to answer.
            client.close()
            return

        if frame.kind == FRAME_CONTROL and frame.label == MUTATE_LABEL:
            await self._route_mutate(client, initial, frame.payload)
            return
        if frame.kind != FRAME_CONTROL or frame.label != HELLO_LABEL:
            await self._refuse(
                client, ACK_LABEL, "expected a hello control frame"
            )
            return
        try:
            hello = Hello.from_json(frame.payload)
        except ServiceError as exc:
            await self._refuse(client, ACK_LABEL, str(exc))
            return
        if hello.want_stats:
            await self._serve_stats(client)
            return
        await self._route_session(client, initial, hello, address)

    async def _route_mutate(
        self, client: socket.socket, initial: bytes, payload: bytes
    ) -> None:
        if not self.partitioned:
            self.metrics.record_mutation_rejected()
            await self._refuse(
                client,
                MUTATE_ACK_LABEL,
                "this fleet has no sketch store; cannot mutate",
            )
            return
        try:
            name, _ins, _dels = parse_mutate(payload)
        except ServiceError as exc:
            self.metrics.record_mutation_rejected()
            await self._refuse(client, MUTATE_ACK_LABEL, str(exc))
            return
        handle = self._handles.get(self.owner_for(name))
        if handle is None or not handle.dispatchable:
            self.metrics.record_mutation_rejected()
            await self._refuse(
                client, MUTATE_ACK_LABEL, f"the owner of {name!r} is unavailable"
            )
            return
        self._dispatch(handle, client, initial, admitted=False)

    async def _route_session(
        self,
        client: socket.socket,
        initial: bytes,
        hello: Hello,
        address: tuple[Any, ...],
    ) -> None:
        admitted = False
        if self.admission is not None:
            peer = address[0] if address else "unknown"
            code = self.admission.try_admit(str(peer))
            if code is not None:
                self.metrics.record_shed(code)
                await self._refuse(
                    client, ACK_LABEL, rejection_message(code), code=code
                )
                return
            admitted = True
        handle = self._pick_worker(hello)
        if handle is None:
            if admitted and self.admission is not None:
                self.admission.release()
            self.metrics.record_shed(REJECT_AT_CAPACITY)
            await self._refuse(
                client,
                ACK_LABEL,
                "every fleet worker is at its in-flight budget; retry later",
                code=REJECT_AT_CAPACITY,
            )
            return
        if self._dispatcher is not None:
            self._dispatcher.assign(handle.worker_id)
        self._dispatch(handle, client, initial, admitted=admitted)

    def _pick_worker(self, hello: Hello) -> _WorkerHandle | None:
        if self.partitioned:
            # Ownership is a pure function of the protocol name, so even a
            # hello for an unconfigured protocol routes somewhere -- the
            # owner refuses it exactly as a single server would.
            handle = self._handles.get(self.owner_for(hello.protocol or ""))
            if handle is None or not handle.dispatchable:
                return None
            if (
                self.per_worker_inflight is not None
                and handle.inflight >= self.per_worker_inflight
            ):
                return None
            return handle
        assert self._dispatcher is not None
        eligible = [
            worker_id
            for worker_id, handle in self._handles.items()
            if handle.dispatchable
        ]
        choice = self._dispatcher.pick(eligible)
        return None if choice is None else self._handles.get(choice)

    def _dispatch(
        self,
        handle: _WorkerHandle,
        client: socket.socket,
        initial: bytes,
        *,
        admitted: bool,
    ) -> None:
        handle.inflight += 1
        if admitted:
            handle.admitted_inflight += 1
        self.metrics.record_dispatch()
        try:
            handle.send_connection(
                {"type": "conn", "initial": initial, "admitted": admitted}, client
            )
        except (OSError, ValueError):
            # Worker died between pick and send; the client sees a closed
            # connection and retries -- same as a single-server crash.
            handle.inflight = max(0, handle.inflight - 1)
            if admitted:
                handle.admitted_inflight = max(0, handle.admitted_inflight - 1)
                if self.admission is not None:
                    self.admission.release()
        finally:
            client.close()  # the worker holds its own duplicated descriptor

    # -- supervisor-served control requests -----------------------------------------

    async def _serve_stats(self, client: socket.socket) -> None:
        self.metrics.record_stats_request()
        report = await self.fleet_report()
        await self._send_frame(client, STATS_LABEL, json.dumps(report).encode())
        client.close()

    async def fleet_report(self) -> dict[str, Any]:
        """Fleet-wide metrics: merged worker snapshots plus the supervisor's
        own counters, with a per-worker breakdown under ``"workers"``."""
        merged = ServiceMetrics()
        worker_reports: dict[str, Any] = {}
        for worker_id in sorted(self._handles):
            handle = self._handles[worker_id]
            if handle.final_snapshot is not None:
                # Already drained: its last reported state is final.
                merged.merge(handle.final_snapshot)
                worker_reports[str(worker_id)] = handle.final_report
                continue
            if not handle.dispatchable:
                continue
            reply = await self._request_stats(handle)
            if reply is not None:
                merged.merge(reply.get("snapshot") or {})
                worker_reports[str(worker_id)] = reply.get("report")
        merged.merge(self.metrics.snapshot())
        report = merged.report()
        report["workers"] = worker_reports
        return report

    async def _request_stats(
        self, handle: _WorkerHandle
    ) -> dict[str, Any] | None:
        assert self._loop is not None
        self._stats_counter += 1
        request_id = self._stats_counter
        future: asyncio.Future = self._loop.create_future()
        handle.stats_futures[request_id] = future
        try:
            handle.conn.send({"type": "stats-request", "id": request_id})
            return await asyncio.wait_for(future, _STATS_TIMEOUT)
        except (asyncio.TimeoutError, OSError, ValueError, ServiceError):
            handle.stats_futures.pop(request_id, None)
            return None

    # -- raw-socket frame I/O (pre-handoff) -----------------------------------------

    async def _read_one_frame(self, client: socket.socket) -> bytes:
        assert self._loop is not None
        header = await self._read_exact(client, FRAME_HEADER.size)
        _kind, sender_len, label_len, _bits, payload_len = parse_frame_header(header)
        body = await self._read_exact(client, sender_len + label_len + payload_len)
        return header + body

    async def _read_exact(self, client: socket.socket, count: int) -> bytes:
        assert self._loop is not None
        data = b""
        while len(data) < count:
            chunk = await self._loop.sock_recv(client, count - len(data))
            if not chunk:
                raise EOFError("peer closed the connection mid-frame")
            data += chunk
        return data

    async def _send_frame(
        self, client: socket.socket, label: str, payload: bytes
    ) -> None:
        assert self._loop is not None
        with contextlib.suppress(OSError):
            await self._loop.sock_sendall(
                client, pack_frame(FRAME_CONTROL, "bob", label, 0, payload)
            )

    async def _refuse(
        self,
        client: socket.socket,
        label: str,
        message: str,
        code: str | None = None,
    ) -> None:
        await self._send_frame(client, label, error_payload(message, code))
        client.close()


# ---------------------------------------------------------------------------
# Signal wiring (shared by the fleet and single-server CLI paths)
# ---------------------------------------------------------------------------


def install_signal_drain(
    loop: asyncio.AbstractEventLoop,
    trigger: Callable[[], None],
    signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
) -> list[int]:
    """Wire ``signals`` to ``trigger`` (idempotent drain initiation).

    Returns the signals actually installed; platforms without
    ``add_signal_handler`` (or non-main threads) install none and fall back
    to KeyboardInterrupt handling.  Pair with :func:`remove_signal_drain`.
    """
    installed: list[int] = []
    for signum in signals:
        try:
            loop.add_signal_handler(signum, trigger)
        except (NotImplementedError, RuntimeError, ValueError):
            continue
        installed.append(signum)
    return installed


def remove_signal_drain(
    loop: asyncio.AbstractEventLoop, signals: list[int]
) -> None:
    """Undo :func:`install_signal_drain`."""
    for signum in signals:
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            loop.remove_signal_handler(signum)
