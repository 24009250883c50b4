"""Crash-recovery property tests: arbitrary insert/delete/sync/snapshot
sequences interleaved with simulated process death.  After every recovery
the journal-replayed sketches must be byte-identical to a fresh encode of
the dataset -- durability is exact, not approximate."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iblt import IBLT
from repro.protocols.parties.setrecon import set_verification_hash
from repro.store import SketchConfig, SketchStore

UNIVERSE = 1 << 20
SEED = 2018
BOUND = 16
KEY = "d"

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("mutate"), st.integers(0, 4), st.integers(0, 4)),
        st.just(("sync",)),
        st.just(("snapshot",)),
        st.just(("crash",)),
        st.just(("crash-torn",)),
    ),
    max_size=24,
)


def fresh_bits(config, dataset):
    params = config.context().table_params(BOUND)
    return IBLT.from_items(params, dataset).serialize()


def check_sync(store, config, dataset, supplied=True):
    """The store must serve exactly what a from-scratch encode would.

    ``supplied=False`` withholds the dataset, so the store cannot heal itself
    from it: what it serves is what its snapshot and journal hold.
    """
    given = dataset if supplied else None
    live = store.table_for(KEY, config, BOUND, given)
    assert live.serialize() == fresh_bits(config, dataset)
    assert store.size_of(KEY, given) == len(dataset)
    assert store.verification_hash(KEY, config, given) == set_verification_hash(
        config.seed, dataset
    )


@settings(max_examples=30, deadline=None)
@given(ops=OPS)
def test_any_history_with_crashes_recovers_byte_identical_sketches(ops):
    config = SketchConfig(UNIVERSE, seed=SEED)
    with tempfile.TemporaryDirectory() as root:
        dataset = set(range(1000, 1300))
        fresh_keys = iter(range(UNIVERSE - 1, UNIVERSE - 10_000, -1))
        store = SketchStore(root)
        check_sync(store, config, dataset)  # prime every sketch kind

        for op in ops:
            if op[0] == "mutate":
                inserts = [next(fresh_keys) for _ in range(op[1])]
                deletes = sorted(dataset)[: op[2]]
                store.apply(KEY, inserts, deletes, dataset=dataset)
                dataset.difference_update(deletes)
                dataset.update(inserts)
            elif op[0] == "sync":
                check_sync(store, config, dataset)
            elif op[0] == "snapshot":
                store.size_of(KEY, dataset)  # load after a crash, like the server
                store.snapshot(KEY)
            else:
                # Process death: the store object is abandoned (no close,
                # no flush) and a new process opens the same root.
                if op[0] == "crash-torn":
                    journal = Path(root) / f"{KEY}.journal.jsonl"
                    with open(journal, "a", encoding="utf-8") as handle:
                        handle.write('{"seq":')  # the append the crash cut short
                store = SketchStore(root)

        check_sync(store, config, dataset)
        store.close()


@settings(max_examples=15, deadline=None)
@given(
    deltas=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8
    ),
    snapshot_after=st.integers(0, 8),
)
def test_recovered_state_survives_repeated_restarts(deltas, snapshot_after):
    """Snapshot at an arbitrary point, crash after every batch: replay must
    land on the same bytes regardless of where the snapshot boundary fell."""
    config = SketchConfig(UNIVERSE, seed=SEED)
    with tempfile.TemporaryDirectory() as root:
        dataset = set(range(2000, 2200))
        fresh_keys = iter(range(UNIVERSE - 1, UNIVERSE - 1000, -1))
        store = SketchStore(root)
        check_sync(store, config, dataset)

        for index, (num_ins, num_del) in enumerate(deltas):
            inserts = [next(fresh_keys) for _ in range(num_ins)]
            deletes = sorted(dataset)[:num_del]
            store.apply(KEY, inserts, deletes, dataset=dataset)
            dataset.difference_update(deletes)
            dataset.update(inserts)
            if index == snapshot_after:
                store.snapshot(KEY)
            store = SketchStore(root)  # crash after every batch

        check_sync(store, config, dataset)
        store.close()


def test_crash_at_every_byte_of_a_journal_append(tmp_path):
    """Restart, mutate, restart: what the first restart served, the second
    still holds -- wherever inside the last append the process died."""
    config = SketchConfig(UNIVERSE, seed=SEED)
    base = set(range(3000, 3100))
    first = ([UNIVERSE - 1, UNIVERSE - 2], [3000])
    second = ([UNIVERSE - 3], [3001, UNIVERSE - 1])
    third = ([UNIVERSE - 4], [3002])
    store = SketchStore(tmp_path)
    check_sync(store, config, base)  # prime every sketch kind
    store.snapshot(KEY)
    journal = tmp_path / f"{KEY}.journal.jsonl"
    store.apply(KEY, *first)
    append_start = journal.stat().st_size
    store.apply(KEY, *second)
    whole = journal.read_bytes()

    def after(batches):
        dataset = set(base)
        for inserts, deletes in batches:
            dataset.difference_update(deletes)
            dataset.update(inserts)
        return dataset

    for cut in range(append_start, len(whole) + 1):
        journal.write_bytes(whole[:cut])
        committed = [first, second][: whole[:cut].count(b"\n")]
        restarted = SketchStore(tmp_path)
        check_sync(restarted, config, after(committed), supplied=False)
        restarted.apply(KEY, *third)
        check_sync(
            SketchStore(tmp_path), config, after(committed + [third]), supplied=False
        )
