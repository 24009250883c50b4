"""The simulated cluster: convergence, exact accounting, membership."""

import pytest

from repro.cluster import Cluster, GossipScheduler
from repro.errors import ClusterError, ParameterError

SEED = 7


def plant_writes(cluster, writes=4):
    for index, name in enumerate(cluster.node_names):
        for w in range(writes):
            cluster.put(name, f"{name}-key{w}", f"value-{index}-{w}")


class TestConvergence:
    def test_eight_nodes_converge_to_byte_identical_replicas(self):
        cluster = Cluster(8, seed=SEED, difference_bound=32)
        plant_writes(cluster)
        report = cluster.run_until_converged()
        assert report.converged
        assert report.node_count == 8
        digests = {cluster[name].digest() for name in cluster.node_names}
        assert digests == {report.digest}
        # Every write reached every replica.
        for name in cluster.node_names:
            assert cluster[name].get("node0-key0") == "value-0-0"
            assert len(cluster[name]) == 8 * 4

    def test_total_bits_is_exactly_the_summed_session_records(self):
        cluster = Cluster(8, seed=SEED, difference_bound=32)
        plant_writes(cluster)
        report = cluster.run_until_converged()
        assert report.total_bits == sum(
            session.bits for session in cluster.metrics.sessions
        )
        assert report.sessions == len(cluster.metrics.sessions)
        assert sum(
            cluster.metrics.bits_for_round(r + 1) for r in range(report.rounds)
        ) == report.total_bits

    def test_serializing_false_is_refused(self):
        """Every session serializes; the keyword survives only as ``True``."""
        Cluster(2, seed=SEED, serializing=True)
        with pytest.raises(ParameterError, match="serializ"):
            Cluster(2, seed=SEED, serializing=False)

    def test_run_is_a_deterministic_function_of_the_seed(self):
        reports = []
        for _ in range(2):
            cluster = Cluster(6, seed=SEED, difference_bound=32)
            plant_writes(cluster)
            reports.append(cluster.run_until_converged())
        assert reports[0] == reports[1]

    def test_unknown_d_cluster_converges(self):
        cluster = Cluster(4, seed=SEED, difference_bound=None)
        plant_writes(cluster)
        report = cluster.run_until_converged()
        assert report.converged

    def test_stale_policy_converges(self):
        cluster = Cluster(6, seed=SEED, difference_bound=32, policy="stale")
        plant_writes(cluster)
        assert cluster.run_until_converged().converged

    def test_gossip_beats_the_full_state_baseline(self):
        from repro.cluster import KVRecord

        bulk = [
            KVRecord(key=f"bulk-{i}", version=1, writer=0, value=f"payload-{i}")
            for i in range(200)
        ]
        gossip = Cluster(8, seed=SEED, difference_bound=32)
        baseline = Cluster(8, seed=SEED, exchange="full")
        for cluster in (gossip, baseline):
            for name in cluster.node_names:
                cluster[name].merge_records(bulk)  # large shared prefix
            cluster.put("node0", "delta", "d")  # small planted delta
        report_gossip = gossip.run_until_converged()
        report_full = baseline.run_until_converged()
        assert report_gossip.converged and report_full.converged
        assert report_gossip.total_bits < report_full.total_bits


class TestInSyncSessions:
    @pytest.mark.parametrize("bound", [32, None])
    def test_in_sync_sessions_are_exactly_those_between_equal_summaries(self, bound):
        cluster = Cluster(6, seed=SEED, difference_bound=bound)
        plant_writes(cluster)
        equal_before = []
        gossip_once = cluster.gossip_once

        def observed(initiator, peer):
            summaries = (cluster[initiator].summary(), cluster[peer].summary())
            equal_before.append(summaries[0] == summaries[1])
            return gossip_once(initiator, peer)

        cluster.gossip_once = observed
        cluster.run_until_converged()
        cluster.run_round()  # a converged round: every session is in sync
        flags = [session.in_sync for session in cluster.metrics.sessions]
        assert flags == equal_before
        assert any(flags) and not all(flags)
        assert cluster.metrics.in_sync_sessions == sum(flags)
        assert sum(row["in_sync"] for row in cluster.metrics.round_rows()) == sum(flags)
        assert cluster.metrics.round_rows()[-1]["in_sync"] == 6


class TestRetries:
    def test_undersized_bound_retries_with_larger_tables_and_charges_all(self):
        cluster = Cluster(2, seed=SEED, difference_bound=1)
        for i in range(24):
            cluster.put("node0", f"k{i}", f"v{i}")
        record = cluster.gossip_once("node1", "node0")
        assert record.success
        assert record.attempts > 1
        assert cluster.metrics.total_bits == record.bits
        assert cluster["node1"].digest() == cluster["node0"].digest()

    def test_a_zero_bound_grows_its_retry_tables(self):
        cluster = Cluster(2, seed=SEED, difference_bound=0)
        assert list(cluster._bound_schedule()) == [0, 4, 16, 64]
        for i in range(40):
            cluster.put("node0", f"k{i}", f"v{i}")
        record = cluster.gossip_once("node1", "node0")
        assert record.success and record.records_applied == 40
        assert cluster["node1"].digest() == cluster["node0"].digest()

    def test_self_gossip_rejected(self):
        cluster = Cluster(2, seed=SEED)
        with pytest.raises(ParameterError):
            cluster.gossip_once("node0", "node0")


class TestMembership:
    def test_cold_join_catches_up_by_gossip_alone(self):
        cluster = Cluster(4, seed=SEED, difference_bound=32)
        plant_writes(cluster)
        cluster.run_until_converged()
        name = cluster.add_node()
        assert len(cluster[name]) == 0
        report = cluster.run_until_converged()
        assert report.converged and report.node_count == 5
        assert cluster[name].get("node0-key0") == "value-0-0"

    def test_crash_restart_replays_journal_then_reconverges(self, tmp_path):
        cluster = Cluster(4, seed=SEED, difference_bound=32, journal_root=tmp_path)
        plant_writes(cluster)
        cluster.run_until_converged()
        pre_crash = cluster["node3"].digest()
        cluster.crash("node3")
        assert "node3" not in cluster.node_names
        cluster.put("node0", "while-down", "missed")
        cluster.run_round()
        replica = cluster.restart("node3")
        # Journal replay restored the exact pre-crash state...
        assert replica.digest() == pre_crash
        assert replica.get("while-down") is None
        # ...and catch-up gossip delivers what it missed.
        report = cluster.run_until_converged()
        assert report.converged
        assert replica.get("while-down") == "missed"

    def test_restart_requires_a_crash(self):
        cluster = Cluster(2, seed=SEED)
        with pytest.raises(ClusterError):
            cluster.restart("node0")
        with pytest.raises(ClusterError):
            cluster.crash("ghost")

    def test_duplicate_node_name_rejected(self):
        cluster = Cluster(2, seed=SEED)
        with pytest.raises(ParameterError):
            cluster.add_node("node0")


class TestScheduler:
    def test_peer_selection_is_deterministic_and_never_self(self):
        names = [f"node{i}" for i in range(5)]
        first = GossipScheduler(3, "uniform")
        second = GossipScheduler(3, "uniform")
        for round_index in range(1, 20):
            for name in names:
                peer = first.select_peer(name, round_index, names)
                assert peer != name
                assert peer == second.select_peer(name, round_index, names)

    def test_stale_policy_visits_every_peer(self):
        names = [f"node{i}" for i in range(5)]
        scheduler = GossipScheduler(3, "stale")
        seen = set()
        for round_index in range(1, 5):
            peer = scheduler.select_peer("node0", round_index, names)
            assert peer not in seen  # least-recently-synced cycles the ring
            seen.add(peer)
            scheduler.record_sync("node0", peer)
        assert seen == set(names) - {"node0"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError):
            GossipScheduler(0, "bogus")

    def test_no_candidates_rejected(self):
        scheduler = GossipScheduler(0)
        with pytest.raises(ParameterError):
            scheduler.select_peer("node0", 1, ["node0"])
