"""The multi-process sync fleet: FD-passing dispatch, dataset ownership,
crash recovery, rolling drain, and fleet-wide metrics aggregation.

The acceptance pins live here: fleet-routed sessions are transcript-
identical to single-server sessions for every routed protocol, and a
SIGKILLed worker is respawned and serves its partition again after journal
replay."""

import asyncio
import json
import os
import random
import signal
import socket

import pytest

from repro.core.setsofsets.types import SetOfSets
from repro.errors import ServiceError, SessionRejectedError
from repro.protocols import pack_frame, read_frame
from repro.protocols.options import ReconcileOptions
from repro.protocols.transports import FRAME_CONTROL
from repro.service import (
    LeastLoadedDispatcher,
    ServiceMetrics,
    SessionRecord,
    SyncFleet,
    SyncServer,
    afetch_stats,
    amutate,
    areconcile,
    fleet_supported,
    owner_of,
)
from repro.service.hello import HELLO_LABEL, Hello, PeerStats, options_to_wire
from repro.service.metrics import MERGEABLE_COUNTERS

UNIVERSE = 1 << 20
SEED = 2018

needs_fleet = pytest.mark.skipif(
    not fleet_supported(), reason="fleet needs POSIX descriptor passing"
)

ROUTED_PROTOCOLS = ("ibf", "cpi", "iblt_of_iblts", "multiround", "cascading", "naive")


def make_datasets(rng):
    server_set = set(rng.sample(range(UNIVERSE), 300))
    children = [frozenset(rng.sample(range(UNIVERSE), 6)) for _ in range(40)]
    server_sos = SetOfSets(children)
    return {
        "ibf": server_set,
        "cpi": server_set,
        "iblt_of_iblts": server_sos,
        "multiround": server_sos,
        "cascading": server_sos,
        "naive": server_sos,
    }


def perturb(data, rng):
    if isinstance(data, SetOfSets):
        children = [set(child) for child in sorted(data.children, key=sorted)]
        for index in rng.sample(range(len(children)), 2):
            children[index].add(rng.randrange(UNIVERSE))
        return SetOfSets(children)
    mutated = set(data)
    for element in rng.sample(sorted(data), 2):
        mutated.discard(element)
    mutated.add(rng.randrange(UNIVERSE))
    return mutated


def options(client_id=0, bound=12):
    return ReconcileOptions(
        seed=SEED + client_id, universe_size=UNIVERSE, difference_bound=bound
    )


class TestOwnership:
    def test_owner_is_deterministic_and_in_range(self):
        for workers in (1, 2, 3, 8):
            for name in ROUTED_PROTOCOLS:
                owner = owner_of(name, workers, SEED)
                assert 0 <= owner < workers
                assert owner == owner_of(name, workers, SEED)

    def test_owner_depends_on_seed_and_name(self):
        owners = {owner_of(name, 64, SEED) for name in ROUTED_PROTOCOLS}
        assert len(owners) > 1  # names spread across workers
        assert any(
            owner_of(name, 64, SEED) != owner_of(name, 64, SEED + 1)
            for name in ROUTED_PROTOCOLS
        )

    def test_single_worker_owns_everything(self):
        assert all(owner_of(name, 1, SEED) == 0 for name in ROUTED_PROTOCOLS)


class TestDispatcher:
    def test_spreads_load_and_respects_budget(self):
        dispatcher = LeastLoadedDispatcher(4, per_worker_budget=2, seed=SEED)
        picked = []
        for _ in range(8):
            worker = dispatcher.pick()
            assert worker is not None
            dispatcher.assign(worker)
            picked.append(worker)
        # 8 assignments against a 4x2 budget must fill every slot exactly.
        assert sorted(picked.count(w) for w in range(4)) == [2, 2, 2, 2]
        assert dispatcher.pick() is None  # everyone at budget
        dispatcher.complete(picked[0])
        assert dispatcher.pick() == picked[0]

    def test_reset_clears_a_crashed_workers_load(self):
        dispatcher = LeastLoadedDispatcher(2, per_worker_budget=1, seed=SEED)
        for worker in range(2):
            dispatcher.assign(worker)
        assert dispatcher.pick() is None
        dispatcher.reset(1)  # worker 1 crashed: its sessions are gone
        assert dispatcher.pick() == 1

    def test_eligible_filter(self):
        dispatcher = LeastLoadedDispatcher(3, seed=SEED)
        assert dispatcher.pick(eligible=[2]) == 2


@needs_fleet
@pytest.mark.timeout(180)
class TestFleetServing:
    def test_transcripts_identical_to_single_server_for_every_protocol(self):
        """The routing acceptance pin: for each routed protocol, a session
        through the 2-worker fleet is transcript-identical (same recovered
        data, bits, rounds, per-round breakdown) to the same session
        against a plain SyncServer."""
        rng = random.Random(SEED)
        datasets = make_datasets(rng)
        mutated = {
            name: perturb(data, random.Random(SEED + index))
            for index, (name, data) in enumerate(sorted(datasets.items()))
        }

        async def run_all(port):
            outcomes = {}
            for index, name in enumerate(sorted(datasets)):
                result = await areconcile(
                    "127.0.0.1", port, name, mutated[name], options=options(index)
                )
                assert result.success, name
                outcomes[name] = (
                    result.recovered,
                    result.total_bits,
                    result.num_rounds,
                    result.attempts,
                    result.transcript.round_summary(),
                )
            return outcomes

        async def scenario():
            async with SyncServer(datasets) as server:
                single = await run_all(server.port)
            async with SyncFleet(datasets, workers=2, seed=SEED) as fleet:
                fleet_runs = await run_all(fleet.port)
            return single, fleet_runs

        single, fleet_runs = asyncio.run(scenario())
        assert set(single) == set(ROUTED_PROTOCOLS)
        for name in ROUTED_PROTOCOLS:
            assert fleet_runs[name] == single[name], name
            assert fleet_runs[name][0] == datasets[name], name

    def test_burst_kill_restart_burst(self):
        """The CI smoke: an 8-client burst against 2 workers, then a
        SIGKILLed worker is respawned and the next burst still succeeds."""
        rng = random.Random(SEED)
        server_set = set(rng.sample(range(UNIVERSE), 300))

        async def burst(port, offset):
            async def one(client_id):
                mine = perturb(server_set, random.Random(SEED + offset + client_id))
                result = await areconcile(
                    "127.0.0.1", port, "ibf", mine, options=options(offset + client_id)
                )
                assert result.success and result.recovered == server_set

            await asyncio.gather(*(one(i) for i in range(8)))

        async def scenario():
            async with SyncFleet({"ibf": server_set}, workers=2, seed=SEED) as fleet:
                await burst(fleet.port, 0)

                victim = fleet._handles[0].process
                os.kill(victim.pid, signal.SIGKILL)
                for _ in range(200):  # wait for respawn + ready
                    await asyncio.sleep(0.05)
                    handle = fleet._handles.get(0)
                    if (
                        handle is not None
                        and handle.alive
                        and handle.process.pid != victim.pid
                        and handle.ready.is_set()
                    ):
                        break
                else:
                    raise AssertionError("worker 0 was not respawned")

                await burst(fleet.port, 100)
                report = await fleet.fleet_report()
                summary = await fleet.adrain()
            return report, summary

        report, summary = asyncio.run(scenario())
        # The supervisor's dispatch counter survives the crash; the killed
        # worker's own session counters die with it (its second incarnation
        # plus the surviving worker still account for >= the second burst).
        assert report["fleet"]["connections_dispatched"] == 16
        assert report["sessions_served"] >= 8
        assert report["sessions_failed"] == 0
        assert report["fleet"]["worker_restarts"] == 1
        assert summary["aborted"] == 0

    def test_per_worker_budget_sheds_instead_of_queueing(self):
        rng = random.Random(SEED)
        server_set = set(rng.sample(range(UNIVERSE), 200))

        async def scenario():
            async with SyncFleet(
                {"ibf": server_set},
                workers=2,
                seed=SEED,
                latency=0.1,
                per_worker_inflight=1,
            ) as fleet:
                async def one(client_id):
                    mine = perturb(server_set, random.Random(SEED + client_id))
                    try:
                        result = await areconcile(
                            "127.0.0.1", fleet.port, "ibf", mine,
                            options=options(client_id), latency=0.1,
                        )
                    except SessionRejectedError as exc:
                        return exc.code
                    assert result.success and result.recovered == server_set
                    return "served"

                outcomes = await asyncio.gather(*(one(i) for i in range(8)))
                shed = fleet.metrics.snapshot()
                await fleet.adrain()
                return outcomes, shed

        outcomes, shed = asyncio.run(scenario())
        # With 2 one-session workers and 8 simultaneous clients, some must
        # be served and the excess refused with the at-capacity code.
        assert outcomes.count("served") >= 2
        assert "at-capacity" in outcomes
        assert shed["sessions_shed_capacity"] == outcomes.count("at-capacity")

    def test_fleet_stats_aggregate_across_workers(self):
        rng = random.Random(SEED)
        server_set = set(rng.sample(range(UNIVERSE), 200))

        async def scenario():
            async with SyncFleet({"ibf": server_set}, workers=2, seed=SEED) as fleet:
                for client_id in range(6):
                    mine = perturb(server_set, random.Random(SEED + client_id))
                    result = await areconcile(
                        "127.0.0.1", fleet.port, "ibf", mine,
                        options=options(client_id),
                    )
                    assert result.success
                report = await afetch_stats("127.0.0.1", fleet.port)
                await fleet.adrain()
            return report

        report = asyncio.run(scenario())
        assert report["sessions_served"] == 6
        workers = report["workers"]
        assert sorted(workers) == ["0", "1"]
        # The fleet-wide totals are exactly the sum of the per-worker
        # reports: aggregation adds, it does not double-count.
        assert sum(w["sessions_served"] for w in workers.values()) == 6
        assert sum(
            w["wire_bytes_sent"] for w in workers.values()
        ) == report["wire_bytes_sent"]


@needs_fleet
@pytest.mark.timeout(180)
class TestPartitionedFleet:
    def test_mutate_routes_to_owner_and_survives_owner_crash(self, tmp_path):
        """The crash-recovery acceptance pin: mutate the owner's dataset,
        SIGKILL the owner, and the respawned worker answers syncs with the
        mutated set after replaying its journal."""
        rng = random.Random(SEED)
        server_set = set(rng.sample(range(UNIVERSE), 200))
        fresh = max(server_set) + 1
        mutated_set = (server_set | {fresh}) - {min(server_set)}

        async def scenario():
            async with SyncFleet(
                {"ibf": set(server_set)},
                workers=2,
                seed=SEED,
                store_root=str(tmp_path),
            ) as fleet:
                owner = fleet.owner_for("ibf")
                ack = await amutate(
                    "127.0.0.1", fleet.port, "ibf",
                    insert=[fresh], delete=[min(server_set)],
                )
                assert ack["inserted"] == 1 and ack["deleted"] == 1

                victim = fleet._handles[owner].process
                os.kill(victim.pid, signal.SIGKILL)
                for _ in range(200):
                    await asyncio.sleep(0.05)
                    handle = fleet._handles.get(owner)
                    if (
                        handle is not None
                        and handle.alive
                        and handle.process.pid != victim.pid
                        and handle.ready.is_set()
                    ):
                        break
                else:
                    raise AssertionError("owner worker was not respawned")

                result = await areconcile(
                    "127.0.0.1", fleet.port, "ibf", set(server_set),
                    options=options(7),
                )
                report = await fleet.fleet_report()
                await fleet.adrain()
            return result, report

        result, report = asyncio.run(scenario())
        assert result.success
        assert result.recovered == mutated_set  # the delta survived the crash
        assert report["fleet"]["worker_restarts"] == 1
        # The respawned owner rebuilt its sketches by replaying the journal
        # over its snapshot -- the recovery path, not a cold rebuild.
        assert report["store"]["journal_replays"] >= 1

    def test_storeless_fleet_refuses_mutate(self):
        rng = random.Random(SEED)
        server_set = set(rng.sample(range(UNIVERSE), 100))

        async def scenario():
            async with SyncFleet({"ibf": server_set}, workers=2, seed=SEED) as fleet:
                with pytest.raises(ServiceError, match="no sketch store"):
                    await amutate("127.0.0.1", fleet.port, "ibf", insert=[1])
                # The refusal did not wedge the fleet.
                result = await areconcile(
                    "127.0.0.1", fleet.port, "ibf", set(server_set),
                    options=options(0),
                )
                await fleet.adrain()
                return result

        result = asyncio.run(scenario())
        assert result.success and result.recovered == server_set


@needs_fleet
@pytest.mark.timeout(120)
class TestFleetRobustness:
    def test_garbage_and_partial_hellos_do_not_wedge_the_supervisor(self):
        rng = random.Random(SEED)
        server_set = set(rng.sample(range(UNIVERSE), 100))

        async def scenario():
            async with SyncFleet({"ibf": server_set}, workers=2, seed=SEED) as fleet:
                port = fleet.port

                def garbage():
                    with socket.create_connection(("127.0.0.1", port)) as sock:
                        sock.sendall(b"\xff" * 7)  # not even a full header

                def partial_hello():
                    hello = Hello("ibf", "bob", options_to_wire(options()),
                                  PeerStats())
                    frame = pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0,
                                       hello.to_json())
                    with socket.create_connection(("127.0.0.1", port)) as sock:
                        sock.sendall(frame[: len(frame) // 2])

                await asyncio.to_thread(garbage)
                await asyncio.to_thread(partial_hello)
                result = await areconcile(
                    "127.0.0.1", port, "ibf", set(server_set), options=options(0)
                )
                await fleet.adrain()
                return result

        result = asyncio.run(scenario())
        assert result.success and result.recovered == server_set

    def test_drain_reports_totals_and_refuses_new_connections(self):
        rng = random.Random(SEED)
        server_set = set(rng.sample(range(UNIVERSE), 100))

        async def scenario():
            fleet = SyncFleet({"ibf": server_set}, workers=2, seed=SEED)
            await fleet.start()
            port = fleet.port
            result = await areconcile(
                "127.0.0.1", port, "ibf", set(server_set), options=options(0)
            )
            assert result.success
            summary = await fleet.adrain()
            with pytest.raises((ConnectionError, OSError)):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.close()
            return summary

        summary = asyncio.run(scenario())
        assert set(summary) == {"drained", "aborted"}
        assert summary["aborted"] == 0  # nothing was in flight


class TestMetricsMerge:
    def test_merged_worker_snapshots_equal_single_server_totals(self):
        """The satellite pin: splitting one workload across N metrics
        instances and merging the snapshots gives exactly the totals a
        single instance would have recorded."""
        single = ServiceMetrics()
        parts = [ServiceMetrics() for _ in range(3)]

        # Spread 30 varied records across the three "workers" while
        # recording the same stream into the single instance.
        rng = random.Random(SEED)
        for index in range(30):
            worker = parts[rng.randrange(3)]
            record = SessionRecord(
                protocol=("ibf", "cpi")[index % 2],
                role="alice",
                success=index % 5 != 0,
                rounds=1 + index % 3,
                messages=2 + index % 3,
                bits_charged=100 + index,
                wire_bytes_sent=200 + index,
                wire_bytes_received=150 + index,
                attempts=1 + index % 2,
            )
            for metrics in (single, worker):
                metrics.record_session(record)
            if index % 4 == 0:
                for metrics in (single, worker):
                    metrics.record_shed("rate-limited" if index % 8 else "at-capacity")
                    metrics.record_dispatch()

        merged = ServiceMetrics()
        for part in parts:
            merged.merge(part.snapshot())

        assert merged.snapshot() == single.snapshot()
        assert merged.report()["by_protocol"] == single.report()["by_protocol"]

    def test_snapshot_covers_every_counter_field(self):
        """Adding a counter to ServiceMetrics without making it mergeable
        would silently under-report fleet totals -- pin the derivation."""
        metrics = ServiceMetrics()
        snapshot = metrics.snapshot()
        assert set(MERGEABLE_COUNTERS) <= set(snapshot)
        assert "by_protocol" in snapshot
        assert "sessions_served" in MERGEABLE_COUNTERS
        assert "sessions_shed_rate" in MERGEABLE_COUNTERS
        assert "worker_restarts" in MERGEABLE_COUNTERS
