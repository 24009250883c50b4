"""The store-backed server: syncs answered from live sketches, mutate
control frames, anti-entropy snapshots, and identical results vs a
storeless server."""

import asyncio
import random

import pytest

from repro.errors import ServiceError
from repro.protocols.options import ReconcileOptions
from repro.service import SyncServer, afetch_stats, amutate, areconcile
from repro.store import SketchStore

UNIVERSE = 1 << 20
SEED = 2018


def make_sets(differences=8):
    rng = random.Random(SEED)
    server_set = set(rng.sample(range(UNIVERSE), 400))
    client_set = set(server_set)
    for element in rng.sample(sorted(server_set), differences // 2):
        client_set.discard(element)
    added = 0
    while added < differences - differences // 2:
        element = rng.randrange(UNIVERSE)
        if element not in server_set and element not in client_set:
            client_set.add(element)
            added += 1
    return server_set, client_set


def options(difference_bound=16):
    return ReconcileOptions(
        seed=SEED, universe_size=UNIVERSE, difference_bound=difference_bound
    )


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.mark.timeout(120)
def test_store_backed_sync_matches_storeless_server():
    server_set, client_set = make_sets()

    async def scenario():
        async with SyncServer({"ibf": set(server_set)}) as plain:
            reference = await areconcile(
                "127.0.0.1", plain.port, "ibf", client_set, options=options()
            )
        store = SketchStore()
        async with SyncServer({"ibf": set(server_set)}, store=store) as served:
            first = await areconcile(
                "127.0.0.1", served.port, "ibf", client_set, options=options()
            )
            second = await areconcile(
                "127.0.0.1", served.port, "ibf", client_set, options=options()
            )
            report = await afetch_stats("127.0.0.1", served.port)
        for result in (first, second):
            assert result.success
            assert result.recovered == reference.recovered == server_set
            assert result.total_bits == reference.total_bits
            assert result.num_rounds == reference.num_rounds
        # First session encodes (miss), the second serves the live table.
        assert report["store"]["misses"] >= 1
        assert report["store"]["hits"] >= 1

    run(scenario())


@pytest.mark.timeout(120)
def test_unknown_d_sync_through_the_store():
    server_set, client_set = make_sets()

    async def scenario():
        store = SketchStore()
        async with SyncServer({"ibf": set(server_set)}, store=store) as server:
            result = await areconcile(
                "127.0.0.1", server.port, "ibf", client_set,
                options=options(difference_bound=None),
            )
            assert result.success
            assert result.recovered == server_set

    run(scenario())


@pytest.mark.timeout(120)
def test_mutate_updates_dataset_and_sketches_end_to_end():
    server_set, client_set = make_sets()

    async def scenario():
        dataset = set(server_set)
        store = SketchStore()
        async with SyncServer({"ibf": dataset}, store=store) as server:
            port = server.port
            first = await areconcile(
                "127.0.0.1", port, "ibf", client_set, options=options()
            )
            assert first.recovered == server_set

            fresh = [k for k in range(UNIVERSE - 10, UNIVERSE) if k not in dataset][:4]
            victims = sorted(dataset)[:2]
            ack = await amutate(
                "127.0.0.1", port, "ibf", insert=fresh, delete=victims
            )
            assert ack["inserted"] == 4 and ack["deleted"] == 2
            assert ack["size"] == len(server_set) + 2

            # Re-inserting present keys / deleting absent keys is a no-op.
            again = await amutate(
                "127.0.0.1", port, "ibf", insert=fresh, delete=victims
            )
            assert again == {"inserted": 0, "deleted": 0, "size": ack["size"]}

            second = await areconcile(
                "127.0.0.1", port, "ibf", client_set, options=options()
            )
            expected = (set(server_set) - set(victims)) | set(fresh)
            assert second.success
            assert second.recovered == expected == dataset

            report = await afetch_stats("127.0.0.1", port)
            assert report["mutations"]["applied"] == 2
            assert report["mutations"]["keys_inserted"] == 4
            assert report["mutations"]["keys_deleted"] == 2

    run(scenario())


@pytest.mark.timeout(120)
def test_mutate_refusals():
    server_set, _ = make_sets()

    async def scenario():
        store = SketchStore()
        datasets = {"ibf": set(server_set), "cpi": frozenset(server_set)}
        async with SyncServer(datasets, store=store) as server:
            port = server.port
            with pytest.raises(ServiceError, match="no dataset"):
                await amutate("127.0.0.1", port, "nope", insert=[1])
            with pytest.raises(ServiceError, match="frozenset"):
                await amutate("127.0.0.1", port, "cpi", insert=[1])
            with pytest.raises(ServiceError, match="overlap"):
                await amutate("127.0.0.1", port, "ibf", insert=[1], delete=[1])
            report = await afetch_stats("127.0.0.1", port)
            assert report["mutations"]["rejected"] == 3

        async with SyncServer({"ibf": set(server_set)}) as storeless:
            with pytest.raises(ServiceError, match="no sketch store"):
                await amutate("127.0.0.1", storeless.port, "ibf", insert=[1])

    run(scenario())


@pytest.mark.timeout(120)
def test_anti_entropy_snapshots_mutated_datasets(tmp_path):
    server_set, _ = make_sets()

    async def scenario():
        store = SketchStore(tmp_path)
        async with SyncServer(
            {"ibf": set(server_set)}, store=store, anti_entropy_interval=0.05
        ) as server:
            await amutate(
                "127.0.0.1", server.port, "ibf", insert=[UNIVERSE - 1]
            )
            for _ in range(100):
                await asyncio.sleep(0.05)
                if not store.is_dirty("ibf"):
                    break
            report = await afetch_stats("127.0.0.1", server.port)
            assert report["store"]["snapshots_written"] >= 1
            assert report["store"]["anti_entropy_cycles"] >= 1
        assert not store.is_dirty("ibf")
        assert (tmp_path / "ibf.snapshot.json").exists()

    run(scenario())


def test_anti_entropy_requires_a_durable_store():
    with pytest.raises(ServiceError, match="durable"):
        SyncServer({"ibf": set()}, anti_entropy_interval=1.0)
    with pytest.raises(ServiceError, match="durable"):
        SyncServer({"ibf": set()}, store=SketchStore(), anti_entropy_interval=1.0)
