"""One pairwise kv session: purity, exact accounting, failure atomicity."""

import pytest

import repro
from repro.cluster import VersionedKV
from repro.cluster.parties import (
    KVSummaryCodec,
    KVVerdictCodec,
    kv_alice,
    kv_bob,
    kv_context,
    kv_parties,
    pull_request_bits,
    summary_bits,
    verdict_bits,
)
from repro.cluster.records import records_bits
from repro.comm.sizing import bits_for_value
from repro.errors import ParameterError
from repro.protocols.options import ReconcileOptions
from repro.protocols.parties.setrecon import ladder_rungs, set_verification_hash
from repro.protocols.party import PartyOutcome, Receive, Send
from repro.protocols.session import Session
from repro.protocols.transports import SerializingTransport
from repro.store import SketchConfig

SEED = 99


def replica_pair(unique=6, shared=30):
    from repro.cluster import KVRecord

    left = VersionedKV(0, seed=SEED)
    right = VersionedKV(1, seed=SEED)
    common = [
        KVRecord(key=f"shared-{i}", version=i + 1, writer=0, value=f"c{i}")
        for i in range(shared)
    ]
    left.merge_records(common)
    right.merge_records(common)
    for i in range(unique):
        left.put(f"left-{i}", f"lv{i}")
        right.put(f"right-{i}", f"rv{i}")
    return left, right


class TestSessionOutcome:
    def test_parties_are_pure_and_outcomes_carry_the_merges(self):
        left, right = replica_pair()
        before = (left.digest(), right.digest())
        result = repro.reconcile(
            left, right, protocol="kv", seed=SEED, difference_bound=16
        )
        assert result.success
        # Neither replica moved: the session only *computed* the merges.
        assert (left.digest(), right.digest()) == before
        # Applying both sides' records converges the pair.
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=16))
        session = Session(*kv_parties(left, right, 16, ctx)).run()
        left.merge_records(session.alice.details["kv_apply"])
        right.merge_records(session.bob.details["kv_apply"])
        assert left.digest() == right.digest()
        assert left.get("right-0") == "rv0" and right.get("left-0") == "lv0"

    def test_unknown_d_variant_converges_too(self):
        left, right = replica_pair()
        ctx = kv_context(ReconcileOptions(seed=SEED))
        session = Session(*kv_parties(left, right, None, ctx)).run()
        assert session.alice.success and session.bob.success
        assert session.alice.details["difference_bound_used"] >= 1
        left.merge_records(session.alice.details["kv_apply"])
        right.merge_records(session.bob.details["kv_apply"])
        assert left.digest() == right.digest()

    def test_phase_two_bits_are_exact(self):
        left, right = replica_pair()
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=16))
        session = Session(
            *kv_parties(left, right, 16, ctx), transport=SerializingTransport()
        ).run()
        assert session.bob.success
        by_label = {m.label: m for m in session.transcript.messages}
        # Bob pulls left's 6 one-sided fingerprints and pushes his own 6
        # records; alice replies with the 6 pulled records.
        wanted = sorted(left.fingerprints - right.fingerprints)
        pushed = right.records_for(tuple(sorted(right.fingerprints - left.fingerprints)))
        assert by_label["kv pull"].size_bits == pull_request_bits(wanted, pushed)
        replied = left.records_for(tuple(wanted))
        assert by_label["kv records"].size_bits == records_bits(replied)

    @pytest.mark.parametrize("bound", [8, None])
    def test_identical_replicas_exchange_no_records(self, bound):
        left, right = replica_pair(unique=0)
        result = repro.reconcile(
            left, right, protocol="kv", seed=SEED, difference_bound=bound,
            transport=SerializingTransport(),
        )
        assert result.success
        labels = [m.label for m in result.transcript.messages]
        assert labels == ["kv summary", "kv verdict"]  # no table, no estimator
        assert result.total_bits == 64 + bits_for_value(len(right)) + 1
        assert result.details["kv_apply"] == ()
        assert result.details["kv_in_sync"] is True

    def test_differing_replicas_report_not_in_sync(self):
        left, right = replica_pair()
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=16))
        session = Session(*kv_parties(left, right, 16, ctx)).run()
        assert session.alice.details["kv_in_sync"] is False
        assert session.bob.details["kv_in_sync"] is False

    def test_undersized_bound_fails_without_touching_replicas(self):
        left, right = replica_pair(unique=20)
        before = (left.digest(), right.digest())
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=2))
        session = Session(*kv_parties(left, right, 2, ctx)).run()
        assert not session.bob.success
        assert session.bob.details["failure"] == "iblt-peel"
        assert (left.digest(), right.digest()) == before


class TestForgedPrelude:
    """A lying prelude can stop a sync early; it can never make anything merge."""

    def run_and_merge(self, alice_party, bob_party, left, right):
        session = Session(alice_party, bob_party, transport=SerializingTransport()).run()
        for replica, outcome in ((left, session.alice), (right, session.bob)):
            if outcome.success:
                replica.merge_records(outcome.details.get("kv_apply", ()))
        return session

    def test_forged_in_sync_verdict_ends_the_session_with_nothing_merged(self):
        left, right = replica_pair()
        before = (left.digest(), right.digest())

        def lying_alice():
            yield Receive(KVSummaryCodec())
            yield Send("kv verdict", 1, payload=None, codec=KVVerdictCodec())
            return PartyOutcome(True)

        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=16))
        session = self.run_and_merge(lying_alice(), kv_bob(right, 16, ctx), left, right)
        assert session.bob.success and session.bob.details["kv_in_sync"] is True
        assert session.bob.details["kv_apply"] == ()
        assert len(session.transcript.messages) == 2
        assert (left.digest(), right.digest()) == before

    def test_forged_summary_equal_to_alices_ends_the_session_with_nothing_merged(self):
        left, right = replica_pair()
        before = (left.digest(), right.digest())
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=16))
        forged = (set_verification_hash(SEED, left.fingerprints), len(left))

        def lying_bob():
            yield Send(
                "kv summary", summary_bits(len(left)), payload=forged, codec=KVSummaryCodec()
            )
            verdict = yield Receive(KVVerdictCodec())
            return PartyOutcome(True, details={"verdict": verdict})

        session = self.run_and_merge(kv_alice(left, 16, ctx), lying_bob(), left, right)
        assert session.bob.details["verdict"] is None  # "in sync"
        assert session.alice.success and session.alice.details["kv_in_sync"] is True
        assert session.alice.details["kv_apply"] == ()
        assert (left.digest(), right.digest()) == before


class TestFoldLadder:
    """kv's known-bound phase one starts at a small rung and grows by halves."""

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_a_session_grown_twice_succeeds_and_charges_each_step(self, backend):
        left, right = replica_pair(unique=25)  # d = 50: too many for 32 or 64 cells
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=64, backend=backend))
        session = Session(
            *kv_parties(left, right, 64, ctx), transport=SerializingTransport()
        ).run()
        assert session.alice.success and session.bob.success
        messages = session.transcript.messages
        assert [m.label for m in messages] == [
            "kv summary", "kv verdict", "kv fingerprint IBLT",
            "kv grow", "kv fingerprint IBLT growth",
            "kv grow", "kv fingerprint IBLT growth",
            "kv pull", "kv records",
        ]
        # Equal sizes: the start is the smallest rung, and each growth is the
        # upper half of the next one (as many cells as the rung below it).
        rungs, start = ladder_rungs(ctx, 64, 0)
        assert [p.num_cells for p in rungs] == [32, 64, 128] and start == 0
        assert rungs[0].cell_bits == 84
        wanted = sorted(left.fingerprints - right.fingerprints)
        pushed = right.records_for(tuple(sorted(right.fingerprints - left.fingerprints)))
        expected = [
            summary_bits(len(right)),
            verdict_bits(len(left)),
            rungs[0].size_bits + 64,
            1, rungs[0].size_bits,
            1, rungs[1].size_bits,
            pull_request_bits(wanted, pushed),
            records_bits(left.records_for(tuple(wanted))),
        ]
        assert [m.size_bits for m in messages] == expected
        assert session.transcript.total_bits == sum(expected)
        left.merge_records(session.alice.details["kv_apply"])
        right.merge_records(session.bob.details["kv_apply"])
        assert left.digest() == right.digest()

    def test_the_start_rung_covers_the_size_difference(self):
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=64))
        starts = [ladder_rungs(ctx, 64, gap)[1] for gap in (0, 13, 14, 30, 31, 66, 10**9)]
        assert starts == [0, 0, 1, 1, 2, 2, 2]

    def test_a_served_session_grows_without_building_a_table(self, monkeypatch):
        """Every rung is a fold of the one live table per side: after the
        first touch a growing session builds nothing O(n) and keeps nothing new."""
        from repro.iblt import IBLT

        left, right = replica_pair(unique=25)
        ctx = kv_context(ReconcileOptions(seed=SEED, difference_bound=64))
        for replica in (left, right):
            replica.view_for(SketchConfig(ctx.universe_size, ctx.seed)).table(64)
        builds = []
        for name in ("from_items", "insert_batch", "delete_batch"):
            original = getattr(IBLT, name)

            def spying(*args, _original=original, _name=name, **kwargs):
                builds.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(IBLT, name, spying)
        session = Session(*kv_parties(left, right, 64, ctx)).run()
        assert session.bob.success
        assert sum(m.label == "kv grow" for m in session.transcript.messages) == 2
        assert builds == []
        for replica in (left, right):
            (family,) = replica.store._entries["kv"].families.values()
            assert [t.params.num_cells for t in family.tables.values()] == [128]


class TestContextValidation:
    def test_foreign_universe_rejected(self):
        with pytest.raises(ParameterError, match="2\\*\\*64"):
            kv_context(ReconcileOptions(seed=SEED, universe_size=1 << 20))

    def test_session_seed_must_match_replica_seed(self):
        left, right = replica_pair()
        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="seed"):
            repro.reconcile(
                left, right, protocol="kv", seed=SEED + 1, difference_bound=16
            )


class TestStoreReuse:
    def test_repeat_sessions_hit_the_live_sketches(self):
        """After the first geometry touch, every sketch is served live."""
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        left = VersionedKV(0, seed=SEED, metrics=metrics)
        right = VersionedKV(1, seed=SEED)
        for i in range(8):
            left.put(f"k{i}", f"v{i}")
        repro.reconcile(left, right, protocol="kv", seed=SEED, difference_bound=8)
        misses_after_first = metrics.store_misses
        assert misses_after_first > 0  # the first touch encodes once
        for _ in range(3):
            repro.reconcile(
                left, right, protocol="kv", seed=SEED, difference_bound=8
            )
        assert metrics.store_misses == misses_after_first
        assert metrics.store_hits >= 3
