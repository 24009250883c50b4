"""The per-layer ledger: direct timed calls of each layer's public functions,
and the counters the service and the cluster already expose.

Layers are the packages under ``src/repro/``.  Every probe runs on inputs of
the workloads' own shapes, generated from the run seed, and is independent of
which workload the traced run was asked for -- so the traced runs of all
seven workloads sample the same ledger.  Timings are the raw fast decile of a
few repetitions, divided by the work done.

This module is imported by the traced run only, so a probe whose target no
longer exists fails the traced run (``run.py`` reports it as ``missing``) and
leaves the untraced runs unaffected.
"""

from __future__ import annotations

import asyncio
import functools
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

import numpy

import repro
from repro import protocols
from repro.core.setsofsets.encoding import child_set_hash_many  # the one module-level name
from repro.estimator import L0Estimator
from repro.graphs import degree_order_signatures
from repro.hashing import Checksum, HashFamily, SeededHasher, derive_seed, fingerprint64
from repro.iblt import IBLT, IBLTArray, IBLTParameters
from repro.service import afetch_stats
from repro.store import SketchConfig, SketchStore, StoreView, stored_ibf_party

from calibration import percentile
from workloads import (
    BACKEND,
    SERVE_BOUND,
    UNIVERSE,
    WORK_DIR,
    ClusterConverge,
    GraphDegreeOrder,
    ServeMutate,
    ServeSync,
    SetKnown,
    SetUnknown,
    SosCascading,
    Workload,
    hit_share,
)

Metrics = dict[str, tuple[float, str]]

KEY_BITS = UNIVERSE.bit_length() - 1
SET_BOUND = SetKnown.difference_bound
SET_DIFFERENCE = SetKnown.difference


def fast(call: Callable[[], Any], repetitions: int) -> float:
    """Fast-decile seconds of ``call`` over ``repetitions`` runs."""
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return percentile(samples, 0.1)


def session_row(
    protocol: str, workload: Workload, repetitions: int, **overrides: Any
) -> tuple[float, float]:
    """Fast-decile ms and mean charged bits of a few sessions of ``protocol``
    on the inputs and options of the workload's first op."""
    samples, bits = [], []
    for attempt in range(repetitions):
        alice, bob, options = workload.session_args(0, attempt)
        start = time.perf_counter()
        result = repro.reconcile(
            alice, bob, protocol=protocol, options=options,
            transport=protocols.SerializingTransport(), **overrides,
        )
        samples.append(time.perf_counter() - start)
        bits.append(result.total_bits)
    return percentile(samples, 0.1) * 1e3, sum(bits) / len(bits)


def generated(workload_class: type[Workload], seed: int, smoke: bool) -> Any:
    """The workload with its inputs generated: probes run on the workloads' own."""
    workload = workload_class(seed, smoke)
    workload.generate()
    return workload


def hashing_and_iblt(seed: int, smoke: bool) -> Metrics:
    rng = random.Random(derive_seed(seed, "probe-trials"))
    reps = 3 if smoke else 9
    alice, bob = generated(SetKnown, seed, smoke).pool[0]
    size = len(alice)
    params = IBLTParameters.for_difference(SET_BOUND, KEY_BITS, derive_seed(seed, "probe"))
    hasher = SeededHasher(derive_seed(seed, "probe-hash"), 64)
    family = HashFamily(params.seed, params.num_hashes, params.num_cells)
    checksum = Checksum(params.seed, params.checksum_bits)
    table_a = IBLT.from_items(params, alice, backend=BACKEND)
    table_b = IBLT.from_items(params, bob, backend=BACKEND)
    key_array = numpy.array(sorted(alice), dtype=numpy.uint64)

    def peel() -> None:
        if not table_a.subtract(table_b).try_decode().success:
            raise RuntimeError("probe table did not peel")

    serialized = table_a.serialize()
    trials = 50 if smoke else 1500
    failed = 0
    for trial in range(trials):
        drawn = rng.sample(range(UNIVERSE), SET_DIFFERENCE)
        trial_params = IBLTParameters.for_difference(
            SET_BOUND, KEY_BITS, derive_seed(seed, "probe-trial", trial)
        )
        left = IBLT.from_items(trial_params, drawn[: SET_DIFFERENCE // 2], backend=BACKEND)
        right = IBLT.from_items(trial_params, drawn[SET_DIFFERENCE // 2 :], backend=BACKEND)
        failed += not left.subtract(right).try_decode().success

    return {
        "hashing.set_hash_us_per_elem": (
            fast(lambda: hasher.hash_iterable(alice), reps) / size * 1e6, "us"
        ),
        "hashing.cell_hash_ns_per_key": (
            fast(
                lambda: (family.cells_for_array(key_array), checksum.of_keys_array(key_array)),
                10 * reps,
            ) / size * 1e9,
            "ns",
        ),
        "hashing.derive_seed_us": (
            fast(lambda: [derive_seed(seed, "probe", i) for i in range(200)], reps) / 200 * 1e6,
            "us",
        ),
        "iblt.build_us_per_key": (
            fast(lambda: IBLT.from_items(params, alice, backend=BACKEND), reps) / size * 1e6,
            "us",
        ),
        "iblt.peel_us_per_diff": (fast(peel, 3 * reps) / SET_DIFFERENCE * 1e6, "us"),
        "iblt.serialize_us_per_cell": (
            fast(table_a.serialize, 3 * reps) / params.num_cells * 1e6, "us"
        ),
        "iblt.deserialize_us_per_cell": (
            fast(lambda: IBLT.deserialize(params, serialized, backend=BACKEND), 3 * reps)
            / params.num_cells * 1e6,
            "us",
        ),
        "iblt.cells_per_diff": (params.num_cells / SET_BOUND, "ratio"),
        "iblt.decode_failed_share": (failed / trials, "ratio"),
    }


def estimator_probes(seed: int, smoke: bool) -> Metrics:
    reps = 2 if smoke else 5
    unknown = generated(SetUnknown, seed, smoke)
    alice, bob = unknown.pool[0]
    size = len(alice)
    estimator_seed = derive_seed(seed, "probe-l0")
    mine = L0Estimator(estimator_seed)
    mine.update_all(alice, 2)
    theirs = L0Estimator(estimator_seed)
    theirs.update_all(bob, 1)
    bounds = [
        unknown.session(0, attempt, None).details["difference_bound_used"]
        for attempt in range(reps)
    ]
    return {
        "estimator.update_us_per_elem": (
            fast(lambda: L0Estimator(estimator_seed).update_all(alice, 2), reps) / size * 1e6,
            "us",
        ),
        "estimator.merge_query_ms": (
            fast(lambda: theirs.merge(mine).query(), 4 * reps) * 1e3, "ms"
        ),
        "estimator.size_bits": (mine.size_bits, "bits"),
        "estimator.overshoot_ratio": (sum(bounds) / len(bounds) / SET_DIFFERENCE, "ratio"),
    }


def sets_of_sets_probes(seed: int, smoke: bool) -> Metrics:
    reps = 2 if smoke else 5
    cascading = generated(SosCascading, seed, smoke)
    children = [sorted(child) for child in cascading.pool[0].alice]
    count = len(children)
    child_params = IBLTParameters.for_difference(4, KEY_BITS, derive_seed(seed, "probe-child"))
    array = IBLTArray(child_params, children, backend=BACKEND)
    wide_keys = array.serialize_all()
    metrics: Metrics = {
        "hashing.wide_key_us_per_key": (
            fast(lambda: [fingerprint64(key) for key in wide_keys], 3 * reps) / count * 1e6, "us"
        ),
        "iblt.array_build_us_per_child": (
            fast(lambda: IBLTArray(child_params, children, backend=BACKEND), reps) / count * 1e6,
            "us",
        ),
        "iblt.array_serialize_us_per_child": (
            fast(array.serialize_all, reps) / count * 1e6, "us"
        ),
        "setsofsets.child_hash_us_per_child": (
            fast(lambda: child_set_hash_many(children, seed, 48), 3 * reps) / count * 1e6, "us"
        ),
    }
    # Companion rows on the sos-cascading instance (the Table 1 line); they
    # gate nothing.
    for protocol in ("naive", "iblt_of_iblts", "multiround"):
        ms, bits = session_row(protocol, cascading, reps)
        metrics[f"protocols.{protocol}_ms_p10"] = (ms, "ms")
        metrics[f"protocols.{protocol}_bits"] = (bits, "bits")
    return metrics


def field_and_graph_probes(seed: int, smoke: bool) -> Metrics:
    reps = 2 if smoke else 5
    cpi_ms, cpi_bits = session_row("cpi", generated(SetKnown, seed, smoke), reps)
    graphs = generated(GraphDegreeOrder, seed, smoke)
    graph = graphs.pool[0].alice
    return {
        "field.cpi_session_ms_p10": (cpi_ms, "ms"),
        "field.cpi_bits": (cpi_bits, "bits"),
        "graphs.signature_ms": (
            fast(lambda: degree_order_signatures(graph, graphs.num_top), reps) * 1e3, "ms"
        ),
    }


def store_probes(seed: int, smoke: bool) -> Metrics:
    """The store in process, memory and durable, on a 100 000-element set."""
    rng = random.Random(derive_seed(seed, "probe-store"))
    size = 5000 if smoke else 100_000
    batches = 20 if smoke else 200
    dataset = set(rng.sample(range(UNIVERSE // 2), size))
    config = SketchConfig(
        universe_size=UNIVERSE, seed=derive_seed(seed, "probe-store-config"), backend=BACKEND
    )
    fresh = iter(range(UNIVERSE // 2, UNIVERSE))

    def prime(store: SketchStore) -> StoreView:
        view = StoreView(store, "probe", config, dataset)
        view.table(SERVE_BOUND)
        store.verification_hash("probe", config, dataset)
        return view

    def serve(view: StoreView) -> None:
        # The server's O(d) path: the stored party up to its first message,
        # then that message's encoding.
        send = stored_ibf_party("alice", view, SERVE_BOUND).send(None)
        send.codec.encode(send.payload)

    def apply_batches(store: SketchStore, held: list[int]) -> tuple[float, list[int]]:
        """Batches of four inserts and four deletes: seconds per key, keys held."""
        keys = 0
        start = time.perf_counter()
        for _ in range(batches):
            inserted = [next(fresh) for _ in range(4)]
            store.apply("probe", inserted, held)
            keys += len(inserted) + len(held)
            held = inserted
        return (time.perf_counter() - start) / keys, held

    memory = SketchStore()
    start = time.perf_counter()
    view = prime(memory)
    prime_seconds = time.perf_counter() - start
    serve_seconds = fast(lambda: serve(view), 20)
    memory_apply, _ = apply_batches(memory, [])

    WORK_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="probe-store-", dir=WORK_DIR))
    try:
        durable = SketchStore(root=root)
        prime(durable)
        durable_apply, held = apply_batches(durable, [])
        journal_bytes = sum(path.stat().st_size for path in root.glob("*.journal.jsonl"))
        start = time.perf_counter()
        durable.snapshot("probe")
        snapshot_seconds = time.perf_counter() - start
        _, held = apply_batches(durable, held)  # journal entries for the reopen to replay
        durable.close()
        # The store persists sketches; the caller owns the dataset.
        current = dataset | set(held)
        start = time.perf_counter()
        reopened = SketchStore(root=root)
        StoreView(reopened, "probe", config, current).table(SERVE_BOUND)
        reopen_seconds = time.perf_counter() - start
        reopened.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "store.prime_ms": (prime_seconds * 1e3, "ms"),
        "store.serve_ms": (serve_seconds * 1e3, "ms"),
        "store.apply_us_per_key": (memory_apply * 1e6, "us"),
        "store.apply_durable_us_per_key": (durable_apply * 1e6, "us"),
        "store.journal_bytes_per_key": (journal_bytes / (batches * 8 - 4), "bytes"),
        "store.snapshot_ms": (snapshot_seconds * 1e3, "ms"),
        "store.reopen_ms": (reopen_seconds * 1e3, "ms"),
    }


def service_ledger(seed: int, smoke: bool) -> Metrics:
    """Counters of a fixed serving load: syncs, then mutates, then a kill."""
    syncs = 16 if smoke else 200
    mutates = 16 if smoke else 300
    sync = ServeSync(seed, smoke)
    sync.setup()
    try:
        port = sync.server.port
        rtts = []
        for _ in range(8 if smoke else 40):
            start = time.perf_counter()
            asyncio.run(afetch_stats("127.0.0.1", port))
            rtts.append(time.perf_counter() - start)
        before = sync.stats()
        server_cpu, client_cpu = sync.server.cpu_seconds(), time.process_time()
        results = sync.run(0.0, syncs)
        client_cpu = time.process_time() - client_cpu
        server_cpu = sync.server.cpu_seconds() - server_cpu
        after = sync.stats()
    finally:
        sync.close()
    mutate = ServeMutate(seed, smoke)
    mutate.setup()
    try:
        # Long enough for one anti-entropy sweep, so the restart loads a snapshot.
        mutate_results = mutate.run(0.0 if smoke else 1.5, mutates)
    finally:
        mutate.close()
    if not all(result.ok for result in results + mutate_results):
        raise RuntimeError("service ledger: an op failed")
    sessions = after["sessions_served"] - before["sessions_served"]
    overhead = after["wire_overhead_bytes"] - before["wire_overhead_bytes"]
    return {
        "service.hello_rtt_ms_p10": (percentile(rtts, 0.1) * 1e3, "ms"),
        "service.server_cpu_ms_per_op": (server_cpu / len(results) * 1e3, "ms"),
        "service.client_cpu_ms_per_op": (client_cpu / len(results) * 1e3, "ms"),
        "service.wire_overhead_bytes_per_op": (overhead / sessions, "bytes"),
        "service.retries_per_op": ((after["retries"] - before["retries"]) / sessions, "count"),
        "service.restart_ms": (mutate.restart_seconds * 1e3, "ms"),
        "store.hit_share": (hit_share(before, after), "ratio"),
    }


def cluster_ledger(seed: int, smoke: bool) -> Metrics:
    workload = ClusterConverge(seed, smoke)
    workload.generate()
    clusters = 1 if smoke else 3
    session_seconds: list[float] = []
    sessions = bits = applied = full_bits = 0
    for k in range(clusters):
        ring = workload.build_cluster(k)
        names = ring.node_names
        for index, name in enumerate(names):
            start = time.perf_counter()
            ring.gossip_once(name, names[(index + 1) % len(names)])
            session_seconds.append(time.perf_counter() - start)
        cluster = workload.build_cluster(k)
        report = cluster.run_until_converged()
        full = workload.build_cluster(k, exchange="full").run_until_converged()
        if not (report.converged and full.converged and report.digest == full.digest):
            raise RuntimeError("cluster ledger: gossip and full exchange disagree")
        sessions += report.sessions
        bits += report.total_bits
        applied += sum(record.records_applied for record in cluster.metrics.sessions)
        full_bits += full.total_bits
    return {
        "cluster.session_ms_p10": (percentile(session_seconds, 0.1) * 1e3, "ms"),
        "cluster.sessions_per_op": (sessions / clusters, "count"),
        "cluster.bits_per_session": (bits / sessions, "bits"),
        "cluster.records_applied_per_op": (applied / clusters, "count"),
        "cluster.full_exchange_bits_ratio": (full_bits / bits, "ratio"),
    }


@functools.lru_cache(maxsize=1)
def layer_ledger(seed: int, smoke: bool) -> Metrics:
    """Every layer's probes and counters, from inputs made from ``seed``.

    Independent of the workload, so a process tracing several workloads
    measures it once.
    """
    metrics: Metrics = {}
    for probe in (
        hashing_and_iblt,
        estimator_probes,
        sets_of_sets_probes,
        field_and_graph_probes,
        store_probes,
        service_ledger,
        cluster_ledger,
    ):
        metrics.update(probe(seed, smoke))
    return metrics
