"""SketchStore invariants: live sketches equal from-scratch encodes,
bit for bit, through arbitrary mutation histories; durability round-trips;
config disagreement invalidates instead of serving stale bytes."""

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.setrecon.difference import max_element_bits
from repro.errors import ParameterError, StoreError
from repro.hashing import derive_seed
from repro.iblt import IBLT, IBLTParameters
from repro.iblt.sizing import NUM_HASHES
from repro.protocols.parties.setrecon import (
    SetReconContext,
    ibf_parties,
    set_verification_hash,
)
from repro.protocols.session import run_session
from repro.protocols.wire import WireError
from repro.service.metrics import ServiceMetrics
from repro.store import SNAPSHOT_VERSION, SketchConfig, SketchStore, StoreView
from repro.store.parties import stored_ibf_party
from repro.store.sketch import MAX_LIVE_FAMILIES, MAX_TABLES_PER_FAMILY

UNIVERSE = 1 << 24
SEED = 2018


def make_dataset(size=500, seed=SEED):
    return set(random.Random(seed).sample(range(UNIVERSE), size))


def fresh_table(config, bound, dataset):
    params = config.context().table_params(bound)
    return IBLT.from_items(params, dataset)


def test_live_table_equals_fresh_encode_after_mutations():
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore()
    store.table_for("d", config, 20, dataset)  # prime

    rng = random.Random(SEED + 1)
    for _ in range(5):
        deletes = rng.sample(sorted(dataset), 4)
        inserts = []
        while len(inserts) < 4:
            key = rng.randrange(UNIVERSE)
            if key not in dataset:
                inserts.append(key)
        store.apply("d", inserts, deletes)
        dataset.difference_update(deletes)
        dataset.update(inserts)

    live = store.table_for("d", config, 20, dataset)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    assert store.size_of("d") == len(dataset)
    assert store.verification_hash("d", config, dataset) == set_verification_hash(
        SEED, dataset
    )


@pytest.mark.parametrize("universe", [UNIVERSE, 1 << 64])
@pytest.mark.parametrize("seed", [0, SEED])
def test_derived_table_params_are_cached_and_equal_the_derivation(universe, seed):
    """``table_params`` and ``table_seed`` derive once per process; the cached
    values are exactly what the uncached derivation gives, and a table of
    another hash count is never admitted."""
    config = SketchConfig(universe, seed=seed)
    assert config.table_seed == derive_seed(seed, "setrecon")
    context = config.context()
    for bound in (0, 1, 24, 64, 500):
        uncached = IBLTParameters.for_difference(
            max(1, bound), max_element_bits(universe), derive_seed(seed, "setrecon")
        )
        assert uncached.num_hashes == NUM_HASHES
        assert context.table_params(bound) == uncached
        assert context.table_params(bound) is config.context().table_params(bound)
        assert config.admits_params(uncached)
        assert not config.admits_params(dataclasses.replace(uncached, num_hashes=3))


def test_same_geometry_shares_one_table_and_counts_hits():
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    metrics = ServiceMetrics()
    store = SketchStore(metrics=metrics)
    first = store.table_for("d", config, 20, dataset)
    assert metrics.store_misses == 1 and metrics.store_hits == 0
    again = store.table_for("d", config, 20, dataset)
    assert again is first
    assert metrics.store_hits == 1
    # A different bound mapping to a different cell count is a fresh table.
    other = store.table_for("d", config, 200, dataset)
    assert other is not first
    assert metrics.store_misses == 2


@given(
    steps=st.lists(
        st.tuples(st.booleans(), st.sampled_from([1, 3, 45, 90]), st.integers(0, 1 << 32)),
        max_size=6,
    )
)
@settings(max_examples=25, deadline=None)
def test_live_estimators_equal_fresh_ones_after_random_mutations(steps):
    """Both sides' live estimators, through one-key and batched applies on
    either side of the array-route cutoff, counter for counter."""
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore()
    for side in (1, 2):
        store.estimator_for("d", config, side, dataset)
    for insert, size, seed in steps:
        rng = random.Random(seed)
        if insert:
            changed = sorted({rng.randrange(UNIVERSE) for _ in range(size)} - dataset)
            store.apply("d", changed, [])
        else:
            changed = rng.sample(sorted(dataset), min(size, len(dataset)))
            store.apply("d", [], changed)
        dataset.symmetric_difference_update(changed)
    state = config.context().estimator_codec().encode
    for side in (1, 2):
        fresh = config.context().make_estimator()
        fresh.update_all(dataset, side)
        live = store.estimator_for("d", config, side, None)
        assert state(live) == state(fresh)


def test_live_estimator_equals_fresh_one():
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore()
    store.estimator_for("d", config, 1, dataset)  # prime

    inserts, deletes = [UNIVERSE - 1, UNIVERSE - 2], sorted(dataset)[:2]
    store.apply("d", inserts, deletes)
    dataset.difference_update(deletes)
    dataset.update(inserts)

    fresh = config.context().make_estimator()
    fresh.update_all(dataset, 1)
    live = store.estimator_for("d", config, 1, dataset)
    probe = config.context().make_estimator()
    probe.update_all(make_dataset(seed=SEED + 9), 2)
    assert probe.merge(live).query() == probe.merge(fresh).query()


def test_estimator_side_must_be_1_or_2():
    store = SketchStore()
    with pytest.raises(ParameterError):
        store.estimator_for("d", SketchConfig(UNIVERSE), 3, make_dataset())


def test_foreign_params_are_refused():
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore()
    params = config.context().table_params(20)
    doctored = dataclasses.replace(params, seed=params.seed + 1)
    with pytest.raises(StoreError):
        store.table_for_params("d", config, doctored, dataset)


def test_apply_requires_loaded_entry_or_dataset():
    store = SketchStore()
    with pytest.raises(StoreError):
        store.apply("never-seen", [1], [])


def test_snapshot_and_restart_roundtrip(tmp_path):
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, dataset)
    store.estimator_for("d", config, 1, dataset)
    store.verification_hash("d", config, dataset)
    store.apply("d", [UNIVERSE - 1], [])
    dataset.add(UNIVERSE - 1)
    assert store.is_dirty("d")
    store.snapshot("d")
    assert not store.is_dirty("d")
    # Post-snapshot mutations live only in the journal.
    victim = next(iter(dataset))
    store.apply("d", [], [victim])
    dataset.discard(victim)
    store.close()

    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    live = reopened.table_for("d", config, 20, None)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    assert reopened.size_of("d") == len(dataset)
    assert metrics.journal_replays == 1
    assert metrics.journal_entries_replayed == 1
    assert metrics.store_hits == 1 and metrics.store_misses == 0
    reopened.close()


def test_restart_with_changed_config_invalidates(tmp_path):
    dataset = make_dataset()
    store = SketchStore(tmp_path)
    store.table_for("d", SketchConfig(UNIVERSE, seed=SEED), 20, dataset)
    path = store.snapshot("d")
    store.close()

    # Rewrite the snapshot as if the table seed derivation had changed: the
    # recorded params no longer match what the config derives today.
    body = json.loads(path.read_text())
    body["tables"][0]["params"]["seed"] += 1
    path.write_text(json.dumps(body))

    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    live = reopened.table_for("d", SketchConfig(UNIVERSE, seed=SEED), 20, dataset)
    assert live.serialize() == fresh_table(
        SketchConfig(UNIVERSE, seed=SEED), 20, dataset
    ).serialize()
    assert metrics.store_invalidations >= 1
    reopened.close()


def snapshot_with_every_sketch(tmp_path, dataset, config):
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, dataset)
    store.estimator_for("d", config, 1, dataset)
    store.verification_hash("d", config, dataset)
    path = store.snapshot("d")
    store.close()
    return path


def test_a_snapshot_of_the_persisted_config_shape_is_served(tmp_path):
    """Every snapshot ever written names its family's hash count and safety
    factor.  Both are constants now; a snapshot that names their values
    reopens and serves its sketches unchanged."""
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    path = snapshot_with_every_sketch(tmp_path, dataset, config)
    body = json.loads(path.read_text())
    shape = {
        "universe_size": UNIVERSE, "seed": SEED, "num_hashes": 4, "backend": None,
        "safety_factor": 2.0,
    }
    assert [item["config"] for item in body["tables"] + body["estimators"]] == [shape, shape]
    assert body["tables"][0]["params"]["num_hashes"] == 4

    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    live = reopened.table_for("d", config, 20, dataset)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    reopened.estimator_for("d", config, 1, dataset)
    assert (metrics.store_hits, metrics.store_misses, metrics.store_invalidations) == (2, 0, 0)
    client = set(dataset) ^ {UNIVERSE - 3, next(iter(dataset))}
    view = StoreView(reopened, "d", config, dataset)
    _, client_bob = ibf_parties(set(), client, 20, SetReconContext(UNIVERSE, SEED))
    result = run_session(stored_ibf_party("alice", view, 20), client_bob)
    assert result.success and result.recovered == dataset
    reopened.close()


#: Every name ``backend=`` accepts: all name the one cell store.
BACKEND_NAMES = (None, "auto", "numpy")


def test_every_backend_spelling_is_one_family(tmp_path):
    """A config checks its ``backend`` and drops it: every spelling is one
    config and one fingerprint, so one live family is built and served."""
    dataset = make_dataset()
    configs = [SketchConfig(UNIVERSE, seed=SEED, backend=name) for name in BACKEND_NAMES]
    assert len(set(configs)) == 1
    assert len({config.fingerprint for config in configs}) == 1
    metrics = ServiceMetrics()
    store = SketchStore(tmp_path, metrics=metrics)
    for config in configs:
        live = store.table_for("d", config, 20, dataset)
        store.estimator_for("d", config, 1, dataset)
    assert live.serialize() == fresh_table(configs[0], 20, dataset).serialize()
    assert (metrics.store_hits, metrics.store_misses) == (4, 2)
    body = json.loads(store.snapshot("d").read_text())
    assert (len(body["tables"]), len(body["estimators"]), len(body["hashes"])) == (1, 1, 1)
    store.close()
    with pytest.raises(ParameterError, match="unknown cell backend 'python'"):
        SketchConfig(UNIVERSE, seed=SEED, backend="python")


def test_a_snapshot_persisted_under_a_backend_name_is_the_one_family(tmp_path):
    """Snapshots once recorded the config's ``backend``.  One that names
    ``"numpy"`` reopens into the one family: every spelling is a hit."""
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    path = snapshot_with_every_sketch(tmp_path, dataset, config)
    body = json.loads(path.read_text())
    for item in body["tables"] + body["estimators"]:
        item["config"]["backend"] = "numpy"
    path.write_text(json.dumps(body))

    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    for name in BACKEND_NAMES:
        named = SketchConfig(UNIVERSE, seed=SEED, backend=name)
        live = reopened.table_for("d", named, 20, dataset)
        reopened.estimator_for("d", named, 1, dataset)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    assert (metrics.store_hits, metrics.store_misses, metrics.store_invalidations) == (6, 0, 0)
    reopened.close()


def test_a_three_hash_family_is_invalidated_and_rebuilt(tmp_path):
    """A store whose clients once asked for ``k = 3`` kept that family beside
    the ``k = 4`` one.  Its table is one invalidation and is never served: a
    request for its geometry is refused and the ``k = 4`` table is rebuilt
    from the dataset, while the snapshot's ``k = 4`` sketches still serve."""
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    path = snapshot_with_every_sketch(tmp_path, dataset, config)
    body = json.loads(path.read_text())
    three = IBLTParameters.for_difference(
        20, max_element_bits(UNIVERSE), config.table_seed, num_hashes=3
    )
    item = {
        "config": {**body["tables"][0]["config"], "num_hashes": 3},
        "params": dataclasses.asdict(three),
        "cells": format(IBLT.from_items(three, dataset).serialize(), "x"),
    }
    assert item["params"].keys() == body["tables"][0]["params"].keys()

    metrics = ServiceMetrics()
    path.write_text(json.dumps({**body, "tables": body["tables"] + [item]}))
    beside = SketchStore(tmp_path, metrics=metrics)
    assert beside.table_for("d", config, 20, dataset).params.num_hashes == NUM_HASHES
    with pytest.raises(StoreError, match="disagree"):
        beside.table_for_params("d", config, three, dataset)
    assert (metrics.store_hits, metrics.store_misses, metrics.store_invalidations) == (1, 0, 1)
    beside.close()

    metrics = ServiceMetrics()
    path.write_text(json.dumps({**body, "tables": [item]}))
    alone = SketchStore(tmp_path, metrics=metrics)
    live = alone.table_for("d", config, 20, dataset)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    assert (metrics.store_hits, metrics.store_misses, metrics.store_invalidations) == (0, 1, 1)
    alone.close()


def test_restart_with_out_of_band_dataset_change_invalidates(tmp_path):
    dataset = make_dataset()
    store = SketchStore(tmp_path)
    config = SketchConfig(UNIVERSE, seed=SEED)
    store.table_for("d", config, 20, dataset)
    store.snapshot("d")
    store.close()

    # The dataset changed while the store was down (no journal entry).
    changed = set(dataset)
    changed.add(UNIVERSE - 7)
    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    live = reopened.table_for("d", config, 20, changed)
    assert live.serialize() == fresh_table(config, 20, changed).serialize()
    assert metrics.store_invalidations >= 1
    reopened.close()


def _replay_a_lost_or_doubled_batch(tmp_path, fault, ask_for_hash):
    """Two size-preserving batches past a snapshot, then a journal that lost
    the second (or holds it twice); returns the reopened store's metrics
    after serving the table, with the store, config and true dataset."""
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, dataset)
    if ask_for_hash:
        store.verification_hash("d", config, dataset)
    store.snapshot("d")
    fresh = iter(range(UNIVERSE - 1, 0, -1))
    for _ in range(2):
        inserted = [next(key for key in fresh if key not in dataset) for _ in range(4)]
        deleted = sorted(dataset)[:4]
        store.apply("d", inserted, deleted)
        dataset = (dataset - set(deleted)) | set(inserted)
    store.close()
    journal = tmp_path / "d.journal.jsonl"
    first, second = journal.read_text(encoding="utf-8").splitlines()
    if fault == "dropped":
        lines = [first]
    else:
        lines = [first, second, json.dumps({**json.loads(second), "seq": 3})]
    journal.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    live = reopened.table_for("d", config, 20, dataset)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    assert reopened.verification_hash("d", config, dataset) == set_verification_hash(
        SEED, dataset
    )
    reopened.close()
    return metrics


@pytest.mark.parametrize("fault", ["dropped", "doubled"])
def test_a_lost_or_doubled_size_preserving_batch_invalidates(tmp_path, fault):
    """Four inserts and four deletes keep the size, so a journal that lost
    (or doubled) such a batch passes the size check: the replayed whole-set
    hash is what tells the state apart from the supplied dataset."""
    metrics = _replay_a_lost_or_doubled_batch(tmp_path, fault, ask_for_hash=True)
    assert metrics.store_invalidations == 1


@pytest.mark.parametrize("fault", ["dropped", "doubled"])
def test_a_table_only_snapshot_still_invalidates_a_lost_batch(tmp_path, fault):
    """No session ever asked for the whole-set hash, yet the family's hash
    is persisted with its table, so the same lost batch is still caught
    (a snapshot with no hash would load the stale table as sound)."""
    metrics = _replay_a_lost_or_doubled_batch(tmp_path, fault, ask_for_hash=False)
    assert metrics.store_invalidations == 1


def _snapshot_then_journal(tmp_path, dataset, config, lines):
    """A snapshot of ``dataset`` at seq 0, then a journal of raw ``lines``."""
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, dataset)
    store.snapshot("d")
    store.close()
    (tmp_path / "d.journal.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )


def test_a_journal_line_the_store_would_coerce_invalidates(tmp_path):
    # 1.7, "12" and false are not keys, and true is not a sequence number:
    # the line is interior corruption, not the batch (1, 12, 0) at seq 1.
    dataset = make_dataset() - {0, 1, 5, 12}
    config = SketchConfig(UNIVERSE, seed=SEED)
    _snapshot_then_journal(
        tmp_path,
        dataset,
        config,
        [
            '{"seq": true, "insert": [1.7, "12", false]}',
            '{"seq":2,"insert":[5],"delete":[]}',
        ],
    )
    dataset |= {0, 1, 5, 12}
    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    live = reopened.table_for("d", config, 20, dataset)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    assert metrics.store_invalidations == 1
    assert metrics.journal_replays == 0
    reopened.close()


@pytest.mark.parametrize("key", [1 << 70, -5], ids=["2**70", "-5"])
def test_a_replayed_key_no_table_can_hold_invalidates(tmp_path, key):
    # Load rebuilds from the supplied dataset instead of raising out of
    # table_for (CapacityError for 2**70, ParameterError for -5).
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    _snapshot_then_journal(
        tmp_path,
        dataset,
        config,
        [
            '{"seq":1,"insert":[%d],"delete":[]}' % key,
            '{"seq":2,"insert":[],"delete":[]}',
        ],
    )
    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    live = reopened.table_for("d", config, 20, dataset)
    assert live.serialize() == fresh_table(config, 20, dataset).serialize()
    assert metrics.store_invalidations == 1
    assert not (tmp_path / "d.journal.jsonl").exists()
    reopened.close()


def test_failed_apply_invalidates_wholesale(tmp_path):
    dataset = make_dataset()
    # A tiny universe: keys outside it poison the cell encoding.
    config = SketchConfig(1 << 8, seed=SEED)
    small = {key % (1 << 8) for key in dataset}
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, small)
    with pytest.raises(StoreError):
        store.apply("d", [1 << 30], [])
    assert "d" not in store.loaded_datasets()
    assert not (tmp_path / "d.journal.jsonl").exists()
    store.close()


def test_journal_lag_and_flush(tmp_path):
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, dataset)
    assert store.journal_lag("d") == 0
    store.apply("d", [UNIVERSE - 1], [])
    store.apply("d", [UNIVERSE - 2], [])
    assert store.journal_lag("d") == 2
    assert store.dirty_datasets() == ["d"]
    assert store.flush() == 1
    assert store.journal_lag("d") == 0
    assert store.dirty_datasets() == []
    store.close()


def test_memory_store_is_never_dirty():
    store = SketchStore()
    store.table_for("d", SketchConfig(UNIVERSE), 20, make_dataset())
    store.apply("d", [UNIVERSE - 1], [])
    assert not store.durable
    assert store.dirty_datasets() == []
    with pytest.raises(StoreError):
        store.snapshot("d")


def test_invalidate_drops_memory_and_disk(tmp_path):
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, dataset)
    store.apply("d", [UNIVERSE - 1], [])
    snapshot_path = store.snapshot("d")
    store.invalidate("d")
    assert "d" not in store.loaded_datasets()
    assert not snapshot_path.exists()
    assert not (tmp_path / "d.journal.jsonl").exists()
    store.close()


@pytest.mark.parametrize("stale_version", [1, 2, 4])
def test_older_snapshot_is_invalidated_and_rebuilt(tmp_path, stale_version):
    """Version 2 changed the running-hash values, version 3 the estimator's
    hash and version 5 the table cell (16 / 32 to 4 / 16 bits): an older
    snapshot is one invalidation, everything is rebuilt from the supplied
    dataset (what would have been hits are misses), and the next stored sync
    verifies against a from-scratch peer."""
    assert SNAPSHOT_VERSION == 5
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    store.table_for("d", config, 20, dataset)
    store.estimator_for("d", config, 1, dataset)
    store.verification_hash("d", config, dataset)
    path = store.snapshot("d")
    store.close()

    # The snapshot as it stands is served: two hits, nothing rebuilt.
    metrics = ServiceMetrics()
    current = SketchStore(tmp_path, metrics=metrics)
    current.table_for("d", config, 20, dataset)
    current.estimator_for("d", config, 1, dataset)
    assert (metrics.store_hits, metrics.store_misses) == (2, 0)
    current.close()

    # What an older store left on disk: its schema version, a running hash
    # no peer computes any more, estimator counters filled by another hash,
    # and tables of 16-bit counts and 32-bit checksums.
    body = json.loads(path.read_text())
    body["version"] = stale_version
    for item in body["tables"]:
        item["params"].update(checksum_bits=32, count_bits=16)
        wide = IBLT.from_items(IBLTParameters(**item["params"]), dataset)
        item["cells"] = format(wide.serialize(), "x")
    body["hashes"] = {seed: value ^ 0xDEADBEEF for seed, value in body["hashes"].items()}
    state = config.context().estimator_codec().encode
    foreign = SketchConfig(UNIVERSE, seed=SEED + 1).context().make_estimator()
    foreign.update_all(dataset, 1)
    for item in body["estimators"]:
        item["state"] = state(foreign).hex()
    path.write_text(json.dumps(body))

    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    assert reopened.verification_hash("d", config, dataset) == set_verification_hash(
        SEED, dataset
    )
    assert metrics.store_invalidations == 1
    assert metrics.journal_replays == 0
    fresh = config.context().make_estimator()
    fresh.update_all(dataset, 1)
    rebuilt = reopened.estimator_for("d", config, 1, dataset)
    assert state(rebuilt) == state(fresh) != state(foreign)
    reopened.table_for("d", config, 20, dataset)
    assert (metrics.store_hits, metrics.store_misses) == (0, 2)

    client = set(dataset)
    client.symmetric_difference_update({UNIVERSE - 3, next(iter(dataset))})
    view = StoreView(reopened, "d", config, dataset)
    _, client_bob = ibf_parties(set(), client, 20, SetReconContext(UNIVERSE, SEED))
    result = run_session(stored_ibf_party("alice", view, 20), client_bob)
    assert result.success and result.recovered == dataset
    reopened.close()


def dense_state(estimator):
    """What a version-3 store kept for an L0 estimator: every counter as a
    2-bit field, level-major, MSB first."""
    value = 0
    for counter in estimator._counters:
        value = (value << 2) | counter
    return value.to_bytes(2 * len(estimator._counters) // 8, "big").hex()


def test_version_3_estimators_are_rebuilt_not_misread(tmp_path):
    """Version 4 stores the compact estimator frame.  A version-3 snapshot's
    dense states are never handed to its reader: the snapshot is one
    invalidation and both sides' estimators are rebuilt from the dataset."""
    dataset = make_dataset()
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    live = [store.estimator_for("d", config, side, dataset) for side in (1, 2)]
    path = store.snapshot("d")
    store.close()

    body = json.loads(path.read_text())
    body["version"] = 3
    codec = config.context().estimator_codec()
    for item in body["estimators"]:
        estimator = live[item["side"] - 1]
        item["state"] = dense_state(estimator)
        # Read as a compact frame, a dense state is refused or wrong.
        try:
            misread = codec.encode(codec.decode(bytes.fromhex(item["state"])))
        except WireError:
            misread = None
        assert misread != codec.encode(estimator)
    path.write_text(json.dumps(body))

    metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=metrics)
    for side, estimator in zip((1, 2), live):
        rebuilt = reopened.estimator_for("d", config, side, dataset)
        assert codec.encode(rebuilt) == codec.encode(estimator)
    assert metrics.store_invalidations == 1
    assert (metrics.store_hits, metrics.store_misses) == (0, 2)
    reopened.close()


def first_frame(party):
    """A party's opening message, serialized by its own codec."""
    send = next(party)
    return send.label, send.size_bits, send.codec.encode(send.payload)


def test_peer_chosen_configs_cannot_grow_the_live_set(tmp_path):
    """Seeds and bounds come from whoever connects; the sketches they leave
    live are capped, and eviction costs a rebuild, never a wrong answer."""
    dataset = make_dataset()
    metrics = ServiceMetrics()
    store = SketchStore(tmp_path, metrics=metrics)
    config = SketchConfig(UNIVERSE, seed=SEED)
    ctx = SetReconContext(UNIVERSE, SEED)

    def opening_frames(a_store, a_dataset):
        view = StoreView(a_store, "d", config, a_dataset)
        return (
            first_frame(stored_ibf_party("alice", view, 20)),
            first_frame(stored_ibf_party("bob", view, None)),
        )

    def scratch_opening_frames(a_dataset):
        return (
            first_frame(ibf_parties(a_dataset, set(), 20, ctx)[0]),
            first_frame(ibf_parties(set(), a_dataset, None, ctx)[1]),
        )

    def live_sketches():
        body = json.loads(store.snapshot("d").read_text())
        return len(body["tables"]), len(body["estimators"]), len(body["hashes"])

    assert opening_frames(store, dataset) == scratch_opening_frames(dataset)
    # 300 sessions, each with its own seed and bound, as both roles.
    for i in range(1, 301):
        foreign = StoreView(store, "d", SketchConfig(UNIVERSE, seed=SEED + i), dataset)
        first_frame(stored_ibf_party("alice", foreign, 10 + i))
        first_frame(stored_ibf_party("bob", foreign, None))
    # What apply() has to update (its cost is linear in this) stayed capped...
    assert live_sketches() == (MAX_LIVE_FAMILIES,) * 3
    # ... also when one config walks through many table geometries.
    for bound in range(10, 400, 10):
        store.table_for("d", config, bound, dataset)
    tables, estimators, hashes = live_sketches()
    assert tables == MAX_LIVE_FAMILIES - 1 + MAX_TABLES_PER_FAMILY
    assert estimators == MAX_LIVE_FAMILIES - 1
    assert hashes == MAX_LIVE_FAMILIES  # every family's hash is folded when it is built

    # The first config was evicted long ago: serving it again is a recorded
    # miss per sketch and the same bytes, before and after a mutation.
    misses = metrics.store_misses
    assert opening_frames(store, dataset) == scratch_opening_frames(dataset)
    assert metrics.store_misses == misses + 2  # the bound-20 table, the estimator
    store.apply("d", [UNIVERSE - 1], [min(dataset)])
    mutated = (dataset - {min(dataset)}) | {UNIVERSE - 1}
    assert opening_frames(store, mutated) == scratch_opening_frames(mutated)

    # Snapshot / reopen round-trips what is left, and serves it from hits.
    kept = live_sketches()
    store.close()
    reopened_metrics = ServiceMetrics()
    reopened = SketchStore(tmp_path, metrics=reopened_metrics)
    assert opening_frames(reopened, mutated) == scratch_opening_frames(mutated)
    assert reopened_metrics.store_misses == 0
    body = json.loads(reopened.snapshot("d").read_text())
    assert (len(body["tables"]), len(body["estimators"]), len(body["hashes"])) == kept
    reopened.close()
