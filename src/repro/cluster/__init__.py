"""Replicated last-writer-wins KV store converging by anti-entropy gossip.

The N-party topology on top of the library's pairwise sessions: each node
is a :class:`VersionedKV` replica whose records map to 64-bit fingerprints,
each gossip round is one two-phase ``kv`` session (set reconciliation over
the fingerprints, then a value fetch), and deterministic LWW merge makes
the rounds commute -- so an epidemic schedule converges every replica to
byte-identical state in O(d) bits per round instead of full state.

Entry points:

* :class:`Cluster` -- the deterministic simulated loop (tests, benchmarks);
* :class:`ClusterNode` -- a live node on the asyncio service stack;
* ``python -m repro.cluster`` -- node/put/digest/gossip/sim CLI.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.gossip import POLICIES, GossipScheduler
from repro.cluster.metrics import ClusterMetrics, ConvergenceReport, GossipSessionRecord
from repro.cluster.node import ClusterNode, acontrol
from repro.cluster.records import (
    FINGERPRINT_UNIVERSE,
    KVRecord,
    record_bits,
    record_fingerprint,
    records_bits,
    state_digest,
)
from repro.cluster.replica import VersionedKV

__all__ = [
    "FINGERPRINT_UNIVERSE",
    "POLICIES",
    "Cluster",
    "ClusterMetrics",
    "ClusterNode",
    "ConvergenceReport",
    "GossipScheduler",
    "GossipSessionRecord",
    "KVRecord",
    "VersionedKV",
    "acontrol",
    "record_bits",
    "record_fingerprint",
    "records_bits",
    "state_digest",
]
