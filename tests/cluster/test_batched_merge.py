"""The batched merge path: equal to one record per call, exact, and O(d).

``merge_records`` installs a batch's winners through one store ``apply``;
``Cluster.converged`` screens with O(1) summaries and decides by digest.
These tests pin that neither moved an observable -- records, fingerprints,
clock, digest, returned counts, every live sketch -- and count the calls
that used to be O(n) per replica per round so they cannot creep back.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.records as records_module
import repro.cluster.replica as replica_module
from repro.cluster import Cluster, KVRecord, VersionedKV
from repro.cluster.records import FINGERPRINT_UNIVERSE, state_digest
from repro.comm.bits import BitWriter
from repro.errors import ClusterError
from repro.store.config import SketchConfig
from repro.store.sketch import SketchStore

SEED = 7
CONFIG = SketchConfig(universe_size=FINGERPRINT_UNIVERSE, seed=SEED)
BOUNDS = (4, 32)

# Few keys, versions and writers, so batches are dense in repeated keys,
# stale records and equal-rank duplicates.
RECORDS = st.builds(
    KVRecord,
    key=st.sampled_from(["a", "b", "c", "d", "clé"]),
    version=st.integers(1, 4),
    writer=st.integers(0, 2),
    value=st.sampled_from([None, "", "x", "y"]),
)


#: put, delete, merge and journal replay, in any order.
KEYS = st.sampled_from(["a", "b", "clé"])
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, st.sampled_from(["", "x", "ünï"])),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("merge"), st.lists(RECORDS, max_size=6)),
        st.tuples(st.just("replay")),
    ),
    max_size=16,
)


def estimator_bytes(estimator):
    writer = BitWriter()
    estimator.write_wire(writer)
    return writer.getvalue()


def sketches(kv):
    view = kv.view_for(CONFIG)
    return (
        [view.table(bound).serialize() for bound in BOUNDS],
        view.set_hash,
        view.size,
        [estimator_bytes(view.estimator(side)) for side in (1, 2)],
    )


def observable(kv):
    return (kv.records(), kv.fingerprints, kv.clock, kv.digest(), kv.summary(), sketches(kv))


def live_replica():
    """A replica whose sketches exist before any merge, so every merge
    below maintains them incrementally instead of building them late."""
    kv = VersionedKV(0, seed=SEED)
    sketches(kv)
    return kv


class TestBatchEqualsPerRecord:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), records=st.lists(RECORDS, max_size=24))
    def test_any_split_and_order_matches_one_record_per_call(self, data, records):
        records = data.draw(st.permutations(records))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=4)))
        batches = [records[a:b] for a, b in zip([0] + cuts, cuts + [len(records)])]

        batched, single = live_replica(), live_replica()
        for batch in batches:
            applied = batched.merge_records(batch)
            assert applied == sum(single.merge_records([record]) for record in batch)
        assert observable(batched) == observable(single)

        # ... and to sketches that never saw a mutation: built from the
        # final fingerprint set in one go.
        scratch = VersionedKV(1, seed=SEED)
        scratch.merge_records(batched.records())
        assert sketches(scratch) == sketches(batched)

    def test_two_records_for_one_key_count_twice_and_install_once(self, monkeypatch):
        calls = []
        real = SketchStore.apply

        def counting(self, key, inserted, deleted, dataset=None):
            calls.append((len(tuple(inserted)), len(tuple(deleted))))
            return real(self, key, inserted, deleted, dataset)

        kv = VersionedKV(0, seed=SEED)
        old = KVRecord(key="a", version=1, writer=0, value="old")
        new = KVRecord(key="a", version=2, writer=1, value="new")
        monkeypatch.setattr(SketchStore, "apply", counting)
        assert kv.merge_records([old, new, old]) == 2
        assert kv.records() == [new] and len(kv.fingerprints) == 1
        assert calls == [(1, 0)]
        assert kv.merge_records([]) == 0 and len(calls) == 1

    def test_collision_inside_one_batch_raises_before_any_mutation(self, monkeypatch):
        monkeypatch.setattr(
            replica_module, "record_fingerprints", lambda seed, records: [77] * len(records)
        )
        kv = VersionedKV(0, seed=SEED)
        with pytest.raises(ClusterError, match="collision"):
            kv.merge_records(
                [
                    KVRecord(key="a", version=1, writer=0, value="1"),
                    KVRecord(key="b", version=1, writer=0, value="2"),
                ]
            )
        assert len(kv) == 0 and not kv.fingerprints and kv.summary() == (0, 0)


def loaded_cluster():
    """Eight replicas, 400 shared keys, six local writes each (the shape of
    the ``cluster-converge`` benchmark workload)."""
    cluster = Cluster(8, seed=3, difference_bound=64)
    shared = [
        KVRecord(key=f"k{i}", version=1, writer=0, value=f"v{i}") for i in range(400)
    ]
    for name in cluster.node_names:
        cluster[name].merge_records(shared)
    for index, name in enumerate(cluster.node_names):
        for write in range(6):
            cluster.put(name, f"k{index * 6 + write}", f"{name}-{write}")
    return cluster


class TestConvergedIsDecidedByDigest:
    def pair(self):
        cluster = Cluster(2, seed=SEED)
        cluster.put("node0", "a", "1")
        return cluster

    def test_equal_summaries_do_not_fool_it(self, monkeypatch):
        cluster = self.pair()
        monkeypatch.setattr(VersionedKV, "summary", lambda self: (0, 0))
        assert not cluster.converged()
        cluster["node1"].merge_records(cluster["node0"].records())
        assert cluster.converged()

    def test_differing_digests_are_never_converged(self, monkeypatch):
        cluster = self.pair()
        cluster["node1"].merge_records(cluster["node0"].records())
        assert cluster.converged()
        digests = iter(["one", "two"])
        monkeypatch.setattr(VersionedKV, "digest", lambda self: next(digests))
        assert not cluster.converged()

    def test_differing_summaries_answer_without_a_digest(self, monkeypatch):
        cluster = self.pair()

        def no_digest(self):
            raise AssertionError("summaries differ: no digest is needed")

        monkeypatch.setattr(VersionedKV, "digest", no_digest)
        assert cluster["node0"].summary() != cluster["node1"].summary()
        assert not cluster.converged()

    def test_summary_is_the_count_and_xor_of_the_held_fingerprints(self):
        kv = VersionedKV(0, seed=SEED)
        kv.put("a", "1")
        kv.put("b", "2")
        kv.put("a", "3")
        kv.delete("b")
        folded = 0
        for fingerprint in kv.fingerprints:
            folded ^= fingerprint
        assert kv.summary() == (2, folded)

    def test_digest_is_recomputed_after_every_installed_record_only(self, monkeypatch):
        encoded = []
        real = replica_module.record_state_bytes

        def counting(record):
            encoded.append(record)
            return real(record)

        monkeypatch.setattr(replica_module, "record_state_bytes", counting)
        kv = VersionedKV(0, seed=SEED)
        record = kv.put("a", "1")
        assert encoded == [record]  # one canonical encoding per installed record
        first = kv.digest()
        assert kv.digest() == first and encoded == [record]  # none per digest()
        kv.merge_records([record])  # a no-op merge installs nothing
        assert kv.digest() == first and encoded == [record]
        second = kv.put("a", "2")
        assert kv.digest() != first and encoded == [record, second]
        third = kv.delete("a")
        assert kv.digest() == state_digest(kv.records())
        assert encoded == [record, second, third]


class TestDigestIsTheReference:
    @settings(max_examples=60, deadline=None)
    @given(operations=OPERATIONS)
    def test_after_any_history(self, operations):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "kv.journal.jsonl"
            kv = VersionedKV(0, seed=SEED, journal_path=path)
            for operation in operations:
                if operation[0] == "put":
                    kv.put(operation[1], operation[2])
                elif operation[0] == "delete":
                    kv.delete(operation[1])
                elif operation[0] == "merge":
                    kv.merge_records(operation[1])
                else:
                    kv.close()
                    kv = VersionedKV(0, seed=SEED, journal_path=path)
                assert kv.digest() == state_digest(kv.records())
            kv.close()


class TestWorkIsProportionalToTheDifference:
    def test_counts_over_one_run_to_convergence(self, monkeypatch):
        cluster = loaded_cluster()
        counts = {"encode": 0, "apply": 0, "seed": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        def counted_derive_seed(seed, *labels):
            if labels == ("kv-record",):
                counts["seed"] += 1
            return real_derive_seed(seed, *labels)

        real_derive_seed = records_module.derive_seed
        monkeypatch.setattr(
            replica_module,
            "record_state_bytes",
            counted("encode", replica_module.record_state_bytes),
        )
        monkeypatch.setattr(SketchStore, "apply", counted("apply", SketchStore.apply))
        monkeypatch.setattr(records_module, "derive_seed", counted_derive_seed)

        report = cluster.run_until_converged()

        assert report.converged
        assert {len(cluster[name]) for name in cluster.node_names} == {400}
        # One canonical encoding per installed record: each gossip batch
        # holds one record per key, so installed == applied.
        applied = sum(session.records_applied for session in cluster.metrics.sessions)
        assert counts["encode"] == applied > 0
        # ... and none per digest(): the convergence check and these calls
        # join the kept bytes.
        digests = {cluster[name].digest() for name in cluster.node_names}
        assert digests == {report.digest} and counts["encode"] == applied
        assert report.digest == state_digest(cluster["node0"].records())
        # One store batch per merging side: not one per record.
        assert counts["apply"] <= 2 * report.sessions
        # The fingerprint chain's first word is derived once per seed.
        assert counts["seed"] <= 1
