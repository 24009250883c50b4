"""The on-disk format, pinned byte for byte.

A scripted store history and a scripted replica history write their
journals and snapshot; the sha256 of every file they leave is fixed here.
Any change to a journal line, the snapshot body, a file name or the
compaction rule moves a digest, so a refactor of the persistence code
that passes this test wrote the same bytes as before.
"""

import hashlib
import random

from repro.cluster import VersionedKV
from repro.store import SketchConfig, SketchStore

UNIVERSE = 1 << 24
SEED = 2018


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_store_history_writes_the_pinned_bytes(tmp_path):
    rng = random.Random(SEED)
    dataset = set(rng.sample(range(UNIVERSE), 200))
    config = SketchConfig(UNIVERSE, seed=SEED)
    store = SketchStore(tmp_path)
    store.table_for("d", config, 12, dataset)
    store.estimator_for("d", config, 1, dataset)
    store.verification_hash("d", config, dataset)

    def mutate():
        deleted = rng.sample(sorted(dataset), 3)
        inserted = [key for key in rng.sample(range(UNIVERSE), 4) if key not in dataset]
        store.apply("d", inserted, deleted)
        dataset.difference_update(deleted)
        dataset.update(inserted)

    for _ in range(5):
        mutate()
    journal = tmp_path / "d.journal.jsonl"
    assert digest(journal) == (
        "98917cf4f6d69015beafebcf934893ac066298e860580f5c9c1ccd616bb9b619"
    )
    store.snapshot("d")
    mutate()
    store.close()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "d.journal.jsonl",
        "d.snapshot.json",
    ]
    assert digest(journal) == (
        "32979f63980def55e1e9950455da814c82622201f8584be09873d8c051b4337d"
    )
    assert digest(tmp_path / "d.snapshot.json") == (
        "f51d5c953b70d41b95ddc0a10f48953e9b7217f3895201eda483a9546cf4d8b4"
    )


def test_replica_history_writes_the_pinned_bytes(tmp_path):
    journal = tmp_path / "node.journal.jsonl"
    kv = VersionedKV(3, seed=SEED, journal_path=journal)
    kv.put("user:1", "alice")
    kv.put("user:2", "béa\ntrice")
    kv.delete("user:1")
    assert digest(journal) == (
        "538a047d25775e2586840faa37bd7451488407c4a9f5c381a0e4a5edb55a2b2f"
    )
    kv.compact_journal()
    kv.put("user:3", "carol")
    kv.close()
    assert [path.name for path in tmp_path.iterdir()] == ["node.journal.jsonl"]
    assert digest(journal) == (
        "0cec132e5b5f410b261f836e330c747e69708007a150cdad1776a5dadf43e253"
    )
