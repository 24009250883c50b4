"""The seven workloads of the end-to-end benchmark.

Every workload generates its inputs from the run seed through
``repro.workloads`` (or ``random.Random(seed)`` for plain sets), hands the
program only those inputs, and checks every op's output against the planted
truth.  An *op* is one complete reconciliation as a caller sees it: a session
the protocol itself reports as failed (an IBLT that did not peel, about 1 in
800 at these sizes) is retried with the next derived seed, up to
``MAX_ATTEMPTS`` times, and the time, bits and rounds of every attempt are
charged to the op.  An op that never succeeds, returns a wrong value, is
refused, raises or exceeds ``OP_TIMEOUT_S`` is a *failed* op: it stays in the
timing sample and is counted against the ops attempted.

A run executes the workload's ``cycle`` of distinct ops at least once and then
keeps cycling until its time is up.  Op ``k`` is a pure function of ``(seed, k
mod cycle)``, so ``bits_per_op`` and ``rounds_per_op`` -- means over the first
cycle -- repeat exactly for a seed however many ops the host fits in the run.

Only package-level public names are imported, and every session passes
``backend="numpy"`` and ``field_kernel="numpy"`` explicitly, so a tier
appearing in or vanishing from the environment cannot change what is measured.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import repro
from repro import protocols
from repro.cluster import Cluster
from repro.hashing import derive_seed
from repro.service import afetch_stats, amutate, areconcile
from repro.workloads import (
    planted_cluster_writes,
    planted_separated_graph,
    reconciliation_pair,
    sets_of_sets_instance,
)

from calibration import Calibrator

BACKEND = "numpy"
FIELD_KERNEL = "numpy"
UNIVERSE = 1 << 20
MAX_ATTEMPTS = 3
OP_TIMEOUT_S = 30.0

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
#: Scratch space for durable stores; inside the checkout, ignored by git.
WORK_DIR = HERE / ".work"


@dataclass
class OpResult:
    """What one op cost and whether its output was the planted truth."""

    ok: bool
    seconds: float
    bits: int
    rounds: int
    error: str | None = None
    #: When the op ended (``time.perf_counter``); set by the run loop.
    finished: float = 0.0


class OpTimeout(Exception):
    """An in-process op ran past ``OP_TIMEOUT_S``."""


def _raise_timeout(signum: int, frame: Any) -> None:
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S:.0f} s")


def planted_set_pair(rng: random.Random, size: int, difference: int) -> tuple[set, set]:
    """Two ``size``-element sets whose symmetric difference is ``difference``."""
    half = difference // 2
    drawn = rng.sample(range(UNIVERSE // 2), size + difference - half)
    common = drawn[: size - half]
    alice = set(common) | set(drawn[size - half : size])
    bob = set(common) | set(drawn[size:])
    return alice, bob


class Workload:
    """One named workload: inputs from a seed, ops, verification."""

    name = ""
    #: The registered protocol behind the workload's sessions.
    protocol = ""
    #: Distinct ops; a run executes at least this many.
    cycle = 1
    #: Ops run (and discarded) at the end of set-up.
    warmup_ops = 2

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.cycle = min(self.cycle, 4)
            self.warmup_ops = 1

    # -- lifecycle ------------------------------------------------------------------

    def setup(self) -> None:
        """Generate the inputs, start what the ops talk to, run the warm-up."""
        self.generate()
        for k in range(self.warmup_ops):
            self.op(k)

    def generate(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process and remove every file set-up created."""

    # -- the reference session (what the traced run instruments) ---------------------

    def session_args(self, k: int, attempt: int) -> tuple[Any, Any, Any]:
        """``(alice, bob, options)`` of the workload's reference session ``k``.

        For the four in-process session workloads this *is* the op; for the
        service and cluster workloads it is the in-process twin of the session
        the op runs through sockets or the gossip loop.
        """
        raise NotImplementedError

    def options(self, k: int, attempt: int, **overrides: Any) -> Any:
        return protocols.ReconcileOptions(
            seed=derive_seed(self.seed, self.name, k % self.cycle, attempt),
            backend=BACKEND,
            field_kernel=FIELD_KERNEL,
            **overrides,
        )

    def session(self, k: int, attempt: int, transport: Any) -> Any:
        alice, bob, options = self.session_args(k, attempt)
        return repro.reconcile(
            alice, bob, protocol=self.protocol, options=options, transport=transport
        )

    # -- ops ------------------------------------------------------------------------

    def verify(self, k: int, recovered: Any) -> bool:
        raise NotImplementedError

    def op(self, k: int) -> OpResult:
        """Reconcile until the protocol reports success, then verify."""
        seconds = 0.0
        bits = rounds = 0
        for attempt in range(MAX_ATTEMPTS):
            transport = protocols.SerializingTransport()
            start = time.perf_counter()
            result = self.session(k, attempt, transport)
            seconds += time.perf_counter() - start
            bits += result.total_bits
            rounds += result.num_rounds
            if result.success:
                ok = self.verify(k, result.recovered)
                return OpResult(ok, seconds, bits, rounds, None if ok else "wrong value")
        return OpResult(False, seconds, bits, rounds, "no attempt succeeded")

    def guarded_op(self, k: int) -> OpResult:
        """``op`` with the timeout armed; an exception is a failed op."""
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = time.perf_counter()
        try:
            return self.op(k)
        except Exception as exc:  # a failed op is a result, not a crash
            return OpResult(
                False, time.perf_counter() - start, 0, 0, f"{type(exc).__name__}: {exc}"
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def run(
        self, seconds: float, min_ops: int | None = None, calibrator: Calibrator | None = None
    ) -> list[OpResult]:
        """Closed loop, one caller: at least ``min_ops`` ops and ``seconds``;
        the calibration kernel is sampled between ops."""
        min_ops = self.cycle if min_ops is None else min_ops
        results: list[OpResult] = []
        deadline = time.perf_counter() + seconds
        while len(results) < min_ops or time.perf_counter() < deadline:
            if calibrator is not None:
                calibrator.tick()
            results.append(self.guarded_op(len(results)))
            results[-1].finished = time.perf_counter()
        if calibrator is not None:
            calibrator.sample()
        return results

    def valid(self) -> str | None:
        """Why the finished run is invalid as a whole, if it is."""
        return None


# ---------------------------------------------------------------------------
# In-process session workloads
# ---------------------------------------------------------------------------


class SetKnown(Workload):
    """``ibf`` with a known bound: the plain Section 2 session."""

    name = "set-known"
    protocol = "ibf"
    cycle = 64
    warmup_ops = 16
    set_size = 4096
    difference = 16
    pairs = 16
    difference_bound: int | None = 32

    def generate(self) -> None:
        rng = random.Random(derive_seed(self.seed, "set-pairs"))
        size = 512 if self.smoke else self.set_size
        self.pool = [
            planted_set_pair(rng, size, self.difference) for _ in range(self.pairs)
        ]

    def session_args(self, k: int, attempt: int) -> tuple[Any, Any, Any]:
        alice, bob = self.pool[k % self.pairs]
        return alice, bob, self.options(
            k, attempt, difference_bound=self.difference_bound, universe_size=UNIVERSE
        )

    def verify(self, k: int, recovered: Any) -> bool:
        return recovered == self.pool[k % self.pairs][0]


class SetUnknown(SetKnown):
    """The same pairs with no bound: estimator round, then a sized table."""

    name = "set-unknown"
    cycle = 48
    warmup_ops = 4
    difference_bound = None


class SosCascading(Workload):
    """The paper's one-round sets-of-sets protocol."""

    name = "sos-cascading"
    protocol = "cascading"
    cycle = 24
    instances = 8
    child_size, changes = 16, 12

    def generate(self) -> None:
        children = 40 if self.smoke else 200
        self.pool = [
            sets_of_sets_instance(
                children, self.child_size, UNIVERSE, self.changes,
                seed=derive_seed(self.seed, "sos", index),
                max_children_touched=6,
            )
            for index in range(self.instances)
        ]

    def session_args(self, k: int, attempt: int) -> tuple[Any, Any, Any]:
        instance = self.pool[k % self.instances]
        return instance.alice, instance.bob, self.options(
            k, attempt,
            difference_bound=2 * instance.planted_difference,
            universe_size=UNIVERSE,
            # The a-priori bound h, not the instance's own maximum, so the
            # cascade's geometry (and its bits) is the same for every seed.
            max_child_size=self.child_size + self.changes,
        )

    def verify(self, k: int, recovered: Any) -> bool:
        return recovered == self.pool[k % self.instances].alice


class GraphDegreeOrder(Workload):
    """Theorem 5.2 on planted-separation G(n, p)."""

    name = "graph-degree-order"
    protocol = "degree_order"
    cycle = 12
    instances = 6
    # n <= 250 cannot be planted at this gap: the session then aborts in 4 ms
    # with 0 bits, which counts as a failed op, not a fast one.
    vertices, edge_probability, num_top, changes = 300, 0.2, 30, 2

    def generate(self) -> None:
        self.pool = []
        for index in range(self.instances):
            seed = derive_seed(self.seed, "graph", index)
            base = planted_separated_graph(
                self.vertices, self.edge_probability, self.num_top,
                degree_gap=self.changes + 1, seed=seed,
            )
            self.pool.append(
                reconciliation_pair(
                    self.vertices, self.edge_probability, self.changes,
                    seed=seed + 1, base=base,
                )
            )

    def session_args(self, k: int, attempt: int) -> tuple[Any, Any, Any]:
        pair = self.pool[k % self.instances]
        return pair.alice, pair.bob, self.options(
            k, attempt, difference_bound=self.changes, num_top=self.num_top
        )

    def verify(self, k: int, recovered: Any) -> bool:
        # Bob recovers Alice's graph up to isomorphism (in his own labeling).
        alice = self.pool[k % self.instances].alice
        return recovered.num_edges == alice.num_edges and sorted(
            recovered.degree(v) for v in recovered.vertices()
        ) == sorted(alice.degree(v) for v in alice.vertices())


# ---------------------------------------------------------------------------
# Service workloads: one server child, two closed-loop client connections
# ---------------------------------------------------------------------------

SERVER_SET_SIZE = 2000
CLIENT_SETS = 32
CLIENT_DIFFERENCE = 8
SERVE_BOUND = 24
#: The store keeps one live table per distinct option set, so a load that
#: gives every session its own seed turns an 8-key mutate from 3 ms into
#: 50-100 ms.  The serving workloads share four option sets, as callers do.
OPTION_SETS = 4
CONNECTIONS = 2
MUTATE_KEYS = 4  # inserted and deleted per op: 8 keys, 512 payload bits
MUTATE_BITS = 2 * MUTATE_KEYS * 64


def serve_inputs(seed: int, smoke: bool = False) -> tuple[set, list[set]]:
    """The server's set and the pooled client sets."""
    rng = random.Random(derive_seed(seed, "serve"))
    size = 200 if smoke else SERVER_SET_SIZE
    server = set(rng.sample(range(UNIVERSE // 2), size))
    ordered = sorted(server)
    half = CLIENT_DIFFERENCE // 2
    clients = []
    for _ in range(CLIENT_SETS):
        dropped = rng.sample(ordered, half)
        added: set = set()
        while len(added) < half:
            element = rng.randrange(UNIVERSE // 2)
            if element not in server:
                added.add(element)
        clients.append((server - set(dropped)) | added)
    return server, clients


class ServerChild:
    """The ``server_main.py`` child process on a durable store root.

    The store persists sketches, not datasets: like the fleet supervisor, the
    benchmark hands the child its dataset at every start -- after a kill, the
    acknowledged state -- and the store must bring the matching live sketches
    back from its snapshot and journal (a mismatch invalidates them, which
    shows as store misses).
    """

    def __init__(self) -> None:
        WORK_DIR.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
        self.process: subprocess.Popen | None = None
        self.port = 0

    def start(self, dataset: set) -> None:
        dataset_file = self.directory / "dataset.json"
        dataset_file.write_text(json.dumps(sorted(dataset)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [
                sys.executable, str(HERE / "server_main.py"),
                "--root", str(self.directory / "store"), "--dataset", str(dataset_file),
            ],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"server child did not start: {line!r}")
        self.port = int(line.split()[1])

    def cpu_seconds(self) -> float:
        """CPU time the child has used so far (Linux ``/proc``, nanoseconds)."""
        schedstat = Path(f"/proc/{self.process.pid}/schedstat").read_text()
        return int(schedstat.split()[0]) / 1e9

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Signal the child and wait until it has ended."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(sig)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None

    def restart_after_kill(self, dataset: set) -> float:
        """SIGKILL, restart on the same root; seconds until it listens again."""
        start = time.perf_counter()
        self.stop(signal.SIGKILL)
        self.start(dataset)
        return time.perf_counter() - start

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.directory, ignore_errors=True)


class ServeSync(Workload):
    """Syncs answered from the live store: the smallest-packet regime."""

    name = "serve-sync"
    protocol = "ibf"
    cycle = 128

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.server: ServerChild | None = None
        self.hit_share = 0.0

    def generate(self) -> None:
        self.server_set, self.clients = serve_inputs(self.seed, self.smoke)
        self.truth = set(self.server_set)

    def option_set(self, index: int) -> dict[str, Any]:
        """One of the ``OPTION_SETS`` shared configurations (one live table each)."""
        return dict(
            seed=derive_seed(self.seed, "serve-options", index % OPTION_SETS),
            difference_bound=SERVE_BOUND,
            universe_size=UNIVERSE,
            backend=BACKEND,
            field_kernel=FIELD_KERNEL,
        )

    def session_args(self, k: int, attempt: int) -> tuple[Any, Any, Any]:
        options = protocols.ReconcileOptions(**self.option_set(k + attempt))
        return self.truth, self.clients[k % CLIENT_SETS], options

    def setup(self) -> None:
        self.generate()
        self.server = ServerChild()
        self.server.start(self.server_set)
        # Priming: the first sync per option set builds its live table.
        if not asyncio.run(self.tables_serve_truth()):
            raise RuntimeError("priming syncs did not recover the server set")
        self._stats_after_priming = self.stats()

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    def stats(self) -> dict[str, Any]:
        return asyncio.run(afetch_stats("127.0.0.1", self.server.port))

    async def session_with_server(self, client: int, option_set: int) -> OpResult:
        """One session: client set ``client`` recovers the server's set."""
        start = time.perf_counter()
        result = await asyncio.wait_for(
            areconcile(
                "127.0.0.1", self.server.port, self.protocol,
                self.clients[client % CLIENT_SETS], role="bob", **self.option_set(option_set),
            ),
            OP_TIMEOUT_S,
        )
        seconds = time.perf_counter() - start
        if not result.success:
            return OpResult(False, seconds, result.total_bits, result.num_rounds, "did not peel")
        ok = result.recovered == self.truth
        return OpResult(
            ok, seconds, result.total_bits, result.num_rounds, None if ok else "wrong value"
        )

    async def tables_serve_truth(self) -> bool:
        """Whether every live table serves the current truth.  A session that
        does not peel is retried with another client set against the same
        table, so one healthy table cannot vouch for another."""
        for option_set in range(OPTION_SETS):
            for attempt in range(MAX_ATTEMPTS):
                if (await self.session_with_server(option_set + attempt, option_set)).ok:
                    break
            else:
                return False
        return True

    async def connection_op(self, connection: int, k: int) -> OpResult:
        """Sync client set ``k``, retrying on the next shared option set."""
        seconds = 0.0
        bits = rounds = 0
        error = None
        for attempt in range(MAX_ATTEMPTS):
            result = await self.session_with_server(k, k + attempt)
            seconds += result.seconds
            bits += result.bits
            rounds += result.rounds
            error = result.error
            if result.ok or error == "wrong value":
                break
        return OpResult(error is None, seconds, bits, rounds, error)

    def run(
        self, seconds: float, min_ops: int | None = None, calibrator: Calibrator | None = None
    ) -> list[OpResult]:
        min_ops = self.cycle if min_ops is None else min_ops
        results: dict[int, OpResult] = {}
        issued = 0

        async def connection(index: int, deadline: float) -> None:
            nonlocal issued
            while issued < min_ops or time.perf_counter() < deadline:
                k = issued
                issued += 1
                start = time.perf_counter()
                try:
                    results[k] = await self.connection_op(index, k)
                except Exception as exc:  # refusal, disconnect, timeout: a failed op
                    results[k] = OpResult(
                        False, time.perf_counter() - start, 0, 0,
                        f"{type(exc).__name__}: {exc}",
                    )
                results[k].finished = time.perf_counter()
                if calibrator is not None:
                    calibrator.tick()

        async def both() -> None:
            if calibrator is not None:
                calibrator.sample()
            deadline = time.perf_counter() + seconds
            await asyncio.gather(*(connection(c, deadline) for c in range(CONNECTIONS)))

        asyncio.run(both())
        ordered = [results[k] for k in range(len(results))]
        self.finish(ordered)
        return ordered

    def finish(self, results: list[OpResult]) -> None:
        self.hit_share = hit_share(self._stats_after_priming, self.stats())

    def valid(self) -> str | None:
        if self.hit_share < 0.99:
            return f"store hit share {self.hit_share:.4f} < 0.99 after priming"
        return None


def hit_share(before: dict[str, Any] | None, after: dict[str, Any]) -> float:
    """Store hits / (hits + misses) between two stats reports."""
    hits = after["store"]["hits"] - (before["store"]["hits"] if before else 0)
    misses = after["store"]["misses"] - (before["store"]["misses"] if before else 0)
    return hits / (hits + misses) if hits + misses else 0.0


class ServeMutate(ServeSync):
    """The write side of the layers ``serve-sync`` reads."""

    name = "serve-mutate"
    cycle = 128

    def generate(self) -> None:
        super().generate()
        self._held: list[list[int]] = [[] for _ in range(CONNECTIONS)]
        self._batches = [0] * CONNECTIONS

    async def connection_op(self, connection: int, k: int) -> OpResult:
        """Insert four fresh keys, delete the four this connection inserted last."""
        batch = self._batches[connection]
        self._batches[connection] += 1
        first = UNIVERSE // 2 + connection * (UNIVERSE // 4) + MUTATE_KEYS * batch
        inserted = list(range(first, first + MUTATE_KEYS))
        deleted = self._held[connection]
        start = time.perf_counter()
        ack = await asyncio.wait_for(
            amutate(
                "127.0.0.1", self.server.port, self.protocol, insert=inserted, delete=deleted
            ),
            OP_TIMEOUT_S,
        )
        seconds = time.perf_counter() - start
        # Acknowledged: from here on the keys are part of the truth.
        self.truth.difference_update(deleted)
        self.truth.update(inserted)
        self._held[connection] = inserted
        ok = (
            ack["inserted"] == len(inserted)
            and ack["deleted"] == len(deleted)
            and ack["size"] == len(self.truth)
        )
        return OpResult(ok, seconds, MUTATE_BITS, 1, None if ok else f"ack {ack}")

    def finish(self, results: list[OpResult]) -> None:
        """SIGKILL the server, restart it on the same root, and require every
        live table to serve exactly the acknowledged state."""
        self.snapshotted = self.stats()["store"]["snapshots_written"] > 0
        self.restart_seconds = self.server.restart_after_kill(self.truth)
        recovered = asyncio.run(self.tables_serve_truth())
        self.hit_share = hit_share(None, self.stats())
        if not recovered:
            for result in results:
                result.ok = False
                result.error = "acknowledged state lost across SIGKILL"

    def valid(self) -> str | None:
        # A run too short for the 1 s anti-entropy sweep has no snapshot yet:
        # the restart then rebuilds from the dataset (misses), correctly.
        return super().valid() if self.snapshotted else None


# ---------------------------------------------------------------------------
# Cluster workload: the in-process gossip simulator
# ---------------------------------------------------------------------------


class ClusterConverge(Workload):
    """Eight replicas gossip planted writes to byte-identical convergence."""

    name = "cluster-converge"
    protocol = "kv"
    cycle = 16
    warmup_ops = 1
    nodes, shared_keys, writes_per_node, difference_bound = 8, 400, 6, 64

    def generate(self) -> None:
        if self.smoke:
            self.shared_keys = 60
        self._reference: Cluster | None = None

    def build_cluster(self, k: int, exchange: str = "gossip") -> Cluster:
        """A freshly loaded cluster for op ``k`` (per-op set-up, untimed).

        The run seed plants the values; the cluster seed, which draws the
        gossip schedule, is the op index.  Rounds to convergence under a
        random schedule vary from 2 to 4, and sixteen fresh draws per run seed
        would move ``rounds_per_op`` and ``bits_per_op`` by 5 % between seeds
        for reasons that have nothing to do with the code under test.
        """
        cluster = Cluster(
            self.nodes, seed=k % self.cycle, difference_bound=self.difference_bound,
            backend=BACKEND, exchange=exchange, serializing=True,
        )
        shared, per_node = planted_cluster_writes(
            self.nodes, self.shared_keys, self.writes_per_node,
            seed=derive_seed(self.seed, "cluster", k % self.cycle),
        )
        for name in cluster.node_names:
            cluster[name].merge_records(shared)
        for name, writes in zip(cluster.node_names, per_node, strict=True):
            for key, value in writes:
                cluster.put(name, key, value)
        return cluster

    def session_args(self, k: int, attempt: int) -> tuple[Any, Any, Any]:
        # Parties are pure, so one loaded cluster serves every reference session.
        if self._reference is None:
            self._reference = self.build_cluster(0)
        names = self._reference.node_names
        peer = self._reference[names[k % self.nodes]]
        initiator = self._reference[names[(k + 1) % self.nodes]]
        return peer, initiator, self._reference.options

    def op(self, k: int) -> OpResult:
        cluster = self.build_cluster(k)
        expected = self.shared_keys + self.nodes * self.writes_per_node
        start = time.perf_counter()
        report = cluster.run_until_converged()
        seconds = time.perf_counter() - start
        digests = {cluster[name].digest() for name in cluster.node_names}
        ok = (
            report.converged
            and len(digests) == 1
            and all(len(cluster[name]) == expected for name in cluster.node_names)
        )
        return OpResult(
            ok, seconds, report.total_bits, report.rounds, None if ok else "not converged"
        )


WORKLOADS: dict[str, Callable[..., Workload]] = {
    cls.name: cls
    for cls in (
        SetKnown, SetUnknown, SosCascading, GraphDegreeOrder,
        ServeSync, ServeMutate, ClusterConverge,
    )
}
