"""The live cluster: N ClusterNodes on the asyncio service stack.

Acceptance pin: an N=8 cluster with planted per-node deltas converges to
byte-identical replicas over real sockets, with every client-reported bit
total matching the sum the server-side metrics charged.
"""

import asyncio

import pytest

from repro.cluster import (
    Cluster,
    ClusterNode,
    GossipScheduler,
    KVRecord,
    VersionedKV,
    acontrol,
)
from repro.cluster.node import DIGEST_LABEL, GOSSIP_LABEL, PUT_LABEL
from repro.errors import ClusterError
from repro.protocols.options import ReconcileOptions
from repro.service.metrics import ServiceMetrics

SEED = 31


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_nodes(count, *, difference_bound=32):
    nodes = {}
    metrics = {}
    for index in range(count):
        name = f"node{index}"
        metrics[name] = ServiceMetrics()
        nodes[name] = ClusterNode(
            name,
            VersionedKV(index, seed=SEED),
            options=ReconcileOptions(seed=SEED, difference_bound=difference_bound),
            metrics=metrics[name],
        )
    return nodes, metrics


@pytest.mark.timeout(120)
def test_eight_live_nodes_converge_with_exact_bit_accounting():
    async def body():
        nodes, metrics = make_nodes(8)
        for node in nodes.values():
            await node.start()
        try:
            for index, (name, node) in enumerate(sorted(nodes.items())):
                for w in range(4):
                    node.replica.put(f"{name}-key{w}", f"value-{index}-{w}")
            scheduler = GossipScheduler(SEED, "uniform")
            names = sorted(nodes)
            client_bits = 0
            sessions = 0
            for round_index in range(1, 9):
                for name in names:
                    peer = scheduler.select_peer(name, round_index, names)
                    target = nodes[peer]
                    summary = await nodes[name].agossip(target.host, target.port)
                    assert summary["ok"], summary
                    client_bits += summary["bits"]
                    sessions += 1
                    scheduler.record_sync(name, peer)
                digests = {node.replica.digest() for node in nodes.values()}
                if len(digests) == 1:
                    break
            digests = {node.replica.digest() for node in nodes.values()}
            assert len(digests) == 1, "live cluster failed to converge"
            for node in nodes.values():
                assert len(node.replica) == 8 * 4
            # Every gossip bit the clients observed was charged, exactly
            # once, by some server's transcript accounting.
            server_bits = sum(m.bits_charged_total for m in metrics.values())
            assert server_bits == client_bits
            served = sum(m.sessions_served for m in metrics.values())
            assert served == sessions
        finally:
            for node in nodes.values():
                await node.aclose()

    run_async(body())


def plant(replicas, equal):
    """Four records on ``node0`` only, or the same four on both replicas."""
    records = [KVRecord(key=f"key{w}", version=w + 1, writer=0, value=f"v{w}") for w in range(4)]
    for replica in replicas if equal else replicas[:1]:
        replica.merge_records(records)


@pytest.mark.timeout(60)
@pytest.mark.parametrize("equal", [False, True], ids=["planted-delta", "equal-pair"])
def test_live_and_simulated_sessions_charge_identical_bits(equal):
    """The same pair costs the same bits on sockets as simulated."""
    sim = Cluster(2, seed=SEED, difference_bound=32)
    plant([sim["node0"], sim["node1"]], equal)
    record = sim.gossip_once("node1", "node0")
    assert record.success and record.in_sync == equal

    async def body():
        nodes, _ = make_nodes(2)
        plant([nodes["node0"].replica, nodes["node1"].replica], equal)
        async with nodes["node0"], nodes["node1"]:
            summary = await nodes["node1"].agossip(
                nodes["node0"].host, nodes["node0"].port
            )
        assert summary["ok"] and summary["in_sync"] == equal
        return summary["bits"]

    assert run_async(body()) == record.bits


@pytest.mark.timeout(60)
def test_control_frames_drive_writes_and_digests():
    async def body():
        nodes, _ = make_nodes(2)
        async with nodes["node0"] as left, nodes["node1"] as right:
            reply = await acontrol(
                left.host, left.port, PUT_LABEL, {"key": "user:7", "value": "hi"}
            )
            assert reply["ok"] and reply["version"] == 1
            # Remote-triggered gossip: tell node1 to pull from node0.
            reply = await acontrol(
                right.host,
                right.port,
                GOSSIP_LABEL,
                {"host": left.host, "port": left.port},
            )
            assert reply["ok"] and reply["applied"] == 1
            left_digest = await acontrol(left.host, left.port, DIGEST_LABEL, {})
            right_digest = await acontrol(right.host, right.port, DIGEST_LABEL, {})
            assert left_digest["digest"] == right_digest["digest"]
            assert right.replica.get("user:7") == "hi"

    run_async(body())


@pytest.mark.timeout(60)
def test_gossip_with_unreachable_peer_reports_not_ok():
    async def body():
        nodes, _ = make_nodes(2)
        async with nodes["node0"] as node:
            with pytest.raises(ClusterError, match="refused"):
                await acontrol(
                    node.host, node.port, GOSSIP_LABEL, {"host": "127.0.0.1", "port": 1}
                )
            # The node itself is unharmed and still serves.
            reply = await acontrol(node.host, node.port, DIGEST_LABEL, {})
            assert reply["ok"]

    run_async(body())


def test_options_seed_must_match_replica():
    with pytest.raises(ClusterError, match="seed"):
        ClusterNode(
            "node0", VersionedKV(0, seed=SEED), options=ReconcileOptions(seed=SEED + 1)
        )
