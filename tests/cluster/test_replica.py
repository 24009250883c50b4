"""Replica semantics: LWW merge, journal replay, sketch seam.

The journal's crash properties are checked for both entry codecs in
tests/store/test_journal.py."""

import json

import pytest

from repro.cluster import KVRecord, VersionedKV
from repro.cluster.records import FINGERPRINT_UNIVERSE
from repro.cluster.replica import RECORDS
from repro.errors import ClusterError, ParameterError
from repro.store import Journal
from repro.store.config import SketchConfig


class TestLocalWrites:
    def test_put_get_delete(self):
        kv = VersionedKV(0, seed=5)
        kv.put("a", "1")
        assert kv.get("a") == "1"
        kv.put("a", "2")
        assert kv.get("a") == "2"
        assert len(kv) == 1
        kv.delete("a")
        assert kv.get("a") is None
        # The tombstone is a first-class record, not an absence.
        assert kv.record("a").tombstone
        assert len(kv) == 1

    def test_clock_advances_past_merged_versions(self):
        kv = VersionedKV(0, seed=5)
        kv.merge_records([KVRecord(key="x", version=41, writer=9, value="v")])
        record = kv.put("y", "w")
        assert record.version == 42

    def test_overwrite_swaps_exactly_one_fingerprint(self):
        kv = VersionedKV(0, seed=5)
        kv.put("a", "1")
        before = kv.fingerprints
        kv.put("a", "2")
        after = kv.fingerprints
        assert len(before) == len(after) == 1
        assert before != after


class TestMerge:
    def records(self):
        return [
            KVRecord(key="a", version=1, writer=0, value="old"),
            KVRecord(key="a", version=2, writer=1, value="new"),
            KVRecord(key="b", version=1, writer=1, value=None),
            KVRecord(key="c", version=3, writer=0, value="x"),
        ]

    def test_merge_is_order_independent(self):
        forward = VersionedKV(0, seed=5)
        backward = VersionedKV(1, seed=5)
        forward.merge_records(self.records())
        backward.merge_records(reversed(self.records()))
        assert forward.digest() == backward.digest()
        assert forward.get("a") == "new"

    def test_merge_is_idempotent(self):
        kv = VersionedKV(0, seed=5)
        assert kv.merge_records(self.records()) == 4
        assert kv.merge_records(self.records()) == 0

    def test_superseded_records_do_not_apply(self):
        kv = VersionedKV(0, seed=5)
        kv.merge_records(self.records())
        stale = KVRecord(key="a", version=1, writer=0, value="old")
        assert kv.merge_records([stale]) == 0
        assert kv.get("a") == "new"

    def test_fingerprint_collision_raises(self, monkeypatch):
        import repro.cluster.replica as replica_module

        monkeypatch.setattr(
            replica_module, "record_fingerprints", lambda seed, records: [77] * len(records)
        )
        kv = VersionedKV(0, seed=5)
        kv.put("a", "1")
        with pytest.raises(ClusterError, match="collision"):
            kv.put("b", "2")


class TestJournal:
    def test_replay_restores_exact_state(self, tmp_path):
        path = tmp_path / "node.journal.jsonl"
        kv = VersionedKV(0, seed=5, journal_path=path)
        kv.put("a", "1")
        kv.put("b", "2")
        kv.put("a", "3")
        kv.delete("b")
        digest = kv.digest()
        kv.close()
        reborn = VersionedKV(0, seed=5, journal_path=path)
        assert reborn.digest() == digest
        assert reborn.get("a") == "3"
        assert reborn.get("b") is None
        assert reborn.clock == kv.clock

    def test_a_merge_is_one_synced_append_of_its_winners(self, tmp_path, monkeypatch):
        import repro.store.journal as journal_module

        synced = []
        monkeypatch.setattr(journal_module.os, "fsync", synced.append)
        path = tmp_path / "node.journal.jsonl"
        kv = VersionedKV(0, seed=5, journal_path=path, fsync=True)
        old = KVRecord(key="a", version=1, writer=0, value="old")
        new = KVRecord(key="a", version=2, writer=1, value="new")
        other = KVRecord(key="b", version=1, writer=1, value=None)
        assert kv.merge_records([old, new, other]) == 3
        assert kv.merge_records([old]) == 0  # nothing won: nothing appended
        assert len(synced) == 1
        # Superseded inside its own batch: counted, never journalled.
        assert Journal(path, RECORDS).entries() == [new, other]

    @pytest.mark.parametrize(
        "line",
        [
            '{"key":[1,2],"version":3.9,"writer":true,"value":{"a":1}}',
            '{"key":7,"version":3,"writer":1,"value":"v"}',
            '{"key":"k","version":3.9,"writer":1,"value":"v"}',
            '{"key":"k","version":"3","writer":1,"value":"v"}',
            '{"key":"k","version":3,"writer":true,"value":"v"}',
            '{"key":"k","version":3,"writer":1,"value":{"a":1}}',
            '{"key":"k","version":3,"writer":1,"value":5}',
        ],
        ids=[
            "every-field",
            "int-key",
            "float-version",
            "str-version",
            "bool-writer",
            "dict-value",
            "int-value",
        ],
    )
    def test_a_record_of_the_wrong_type_is_corruption(self, tmp_path, line):
        # Replay checks each field instead of coercing it into a record no
        # replica wrote.
        path = tmp_path / "node.journal.jsonl"
        kv = VersionedKV(0, seed=5, journal_path=path)
        kv.put("a", "1")
        kv.close()
        path.write_text(path.read_text() + line + "\n" + path.read_text())
        with pytest.raises(ClusterError, match="corrupt journal"):
            VersionedKV(0, seed=5, journal_path=path)

    def test_compact_rewrites_to_merged_state(self, tmp_path):
        path = tmp_path / "node.journal.jsonl"
        kv = VersionedKV(0, seed=5, journal_path=path)
        for i in range(5):
            kv.put("a", f"v{i}")
        assert len(Journal(path, RECORDS).entries()) == 5
        kv.compact_journal()
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(entries) == 1 and entries[0]["value"] == "v4"
        reborn = VersionedKV(0, seed=5, journal_path=path)
        assert reborn.digest() == kv.digest()

    def test_compact_without_journal_raises(self):
        with pytest.raises(ClusterError, match="no journal"):
            VersionedKV(0, seed=5).compact_journal()


class TestSessionSeam:
    def config(self, **overrides):
        params = dict(universe_size=FINGERPRINT_UNIVERSE, seed=5)
        params.update(overrides)
        return SketchConfig(**params)

    def test_view_serves_the_fingerprint_set(self):
        kv = VersionedKV(0, seed=5)
        kv.put("a", "1")
        view = kv.view_for(self.config())
        assert view.size == 1

    def test_wrong_universe_rejected(self):
        kv = VersionedKV(0, seed=5)
        with pytest.raises(ParameterError, match="2\\*\\*64"):
            kv.view_for(self.config(universe_size=1 << 32))

    def test_seed_disagreement_rejected(self):
        kv = VersionedKV(0, seed=5)
        with pytest.raises(ClusterError, match="seed"):
            kv.view_for(self.config(seed=6))

    def test_negative_node_id_rejected(self):
        with pytest.raises(ParameterError):
            VersionedKV(-1)
