"""The deterministic simulated cluster: N replicas, gossip to convergence.

Each :meth:`Cluster.run_round` has every live node initiate one pairwise
``kv`` session with a scheduler-chosen peer; the session's two outcomes
carry the records each side should merge, the driver applies them, and the
transcript's charged bits land in :class:`~repro.cluster.metrics.ClusterMetrics`
-- so a run's total is exactly the sum of its session transcripts.

A failed session (an undersized sketch that does not peel) leaves both
replicas untouched; the driver retries the pair with a quadrupled bound
and accounts the bits of every attempt, mirroring the repeated-doubling
protocols' accounting.

``exchange="full"`` swaps the reconciliation for the classic full-state
baseline -- both sides ship every record, every round -- under the same
scheduler, metrics, and convergence detection, which is what the
benchmark's speedup compares against.

Membership is dynamic: :meth:`Cluster.add_node` joins a cold node (it
catches up by gossip alone), :meth:`Cluster.crash` / :meth:`Cluster.restart`
model a process death and its journal-replay recovery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.cluster.metrics import ClusterMetrics, ConvergenceReport, GossipSessionRecord
from repro.cluster.gossip import GossipScheduler
from repro.cluster.records import records_bits
from repro.cluster.replica import VersionedKV
from repro.errors import ClusterError, ParameterError
from repro.iblt.backends import check_backend
from repro.protocols.options import ReconcileOptions
from repro.protocols.registry import get as get_protocol
from repro.protocols.session import Session

#: Bound multiplier between retry attempts of one failed pair sync.
_RETRY_FACTOR = 4
#: Attempts of one pair sync, each at a larger bound, before it fails.
_MAX_ATTEMPTS = 4
#: First known-``d`` bound tried after an unknown-``d`` attempt failed.
_FALLBACK_BOUND = 16


class Cluster:
    """N replicas of one :class:`~repro.cluster.replica.VersionedKV` keyspace.

    Parameters
    ----------
    num_nodes:
        Initial membership (nodes ``node0`` .. ``node{N-1}``).
    seed:
        Public-coin seed shared by fingerprints, sketches, and the gossip
        schedule; the whole run is a deterministic function of it.
    difference_bound:
        Per-round sketch bound.  An integer keeps every round on the same
        table geometry (so the live sketches are reused as-is, O(d) per
        round); ``None`` runs the estimator-sized unknown-``d`` variant.
    backend:
        Kept only because existing callers pass it: ``None``, ``"auto"`` and
        ``"numpy"`` all name the one cell store, and any other name raises
        :class:`ParameterError`.
    policy:
        Peer-selection policy (see :class:`~repro.cluster.gossip.GossipScheduler`).
    exchange:
        ``"gossip"`` (set reconciliation, the default) or ``"full"`` (the
        full-state-exchange baseline).
    serializing:
        Kept only because existing callers pass ``serializing=True``: every
        session already runs over the default
        :class:`~repro.protocols.transports.SerializingTransport`, so
        ``False`` raises :class:`ParameterError`.
    journal_root:
        Directory for per-node record journals; required for
        :meth:`restart` to recover state after :meth:`crash`.
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        seed: int = 0,
        difference_bound: int | None = 32,
        backend: str | None = None,
        policy: str = "uniform",
        exchange: str = "gossip",
        serializing: bool = True,
        journal_root: Path | str | None = None,
    ) -> None:
        if num_nodes < 2:
            raise ParameterError("a cluster needs at least 2 nodes")
        if exchange not in ("gossip", "full"):
            raise ParameterError(f"unknown exchange mode {exchange!r}")
        if not serializing:
            raise ParameterError("every cluster session serializes; serializing must be True")
        check_backend(backend)
        self.seed = seed
        self.exchange = exchange
        self.journal_root = Path(journal_root) if journal_root is not None else None
        self.options = ReconcileOptions(seed=seed, difference_bound=difference_bound)
        self.scheduler = GossipScheduler(seed, policy)
        self.metrics = ClusterMetrics()
        self.replicas: dict[str, VersionedKV] = {}
        self._next_node_id = 0
        self._crashed: dict[str, int] = {}
        self.rounds_run = 0
        for _ in range(num_nodes):
            self.add_node()

    # -- membership -----------------------------------------------------------------

    def _journal_path(self, name: str) -> Path | None:
        if self.journal_root is None:
            return None
        return self.journal_root / f"{name}.journal.jsonl"

    def add_node(self, name: str | None = None) -> str:
        """Join a cold node; it converges through ordinary catch-up gossip."""
        node_id = self._next_node_id
        self._next_node_id += 1
        name = name if name is not None else f"node{node_id}"
        if name in self.replicas or name in self._crashed:
            raise ParameterError(f"node name {name!r} already in use")
        self.replicas[name] = VersionedKV(
            node_id, seed=self.seed, journal_path=self._journal_path(name)
        )
        return name

    def crash(self, name: str) -> None:
        """Model a process death: the in-memory replica is gone entirely."""
        replica = self.replicas.pop(name, None)
        if replica is None:
            raise ClusterError(f"no live node named {name!r}")
        self._crashed[name] = replica.node_id
        replica.close()

    def restart(self, name: str) -> VersionedKV:
        """Restart a crashed node: journal replay, then gossip catches it up."""
        node_id = self._crashed.pop(name, None)
        if node_id is None:
            raise ClusterError(f"no crashed node named {name!r}")
        replica = VersionedKV(
            node_id, seed=self.seed, journal_path=self._journal_path(name)
        )
        self.replicas[name] = replica
        return replica

    @property
    def node_names(self) -> list[str]:
        return sorted(self.replicas)

    def __getitem__(self, name: str) -> VersionedKV:
        return self.replicas[name]

    # -- local writes ---------------------------------------------------------------

    def put(self, name: str, key: str, value: str) -> None:
        self.replicas[name].put(key, value)

    def delete(self, name: str, key: str) -> None:
        self.replicas[name].delete(key)

    # -- one pairwise round ---------------------------------------------------------

    def _bound_schedule(self) -> Iterable[int | None]:
        bound = self.options.difference_bound
        yield bound
        # Grown from at least 1: a zero bound would otherwise stay zero.
        bound = _FALLBACK_BOUND if bound is None else max(bound, 1)
        for _ in range(1, _MAX_ATTEMPTS):
            bound *= _RETRY_FACTOR
            yield bound

    def gossip_once(self, initiator: str, peer: str) -> GossipSessionRecord:
        """One pairwise sync; retries with larger bounds, applies the merges.

        The initiator plays ``bob`` (the recovering role, matching the live
        async client) and the peer plays ``alice``.
        """
        if initiator == peer:
            raise ParameterError("a node cannot gossip with itself")
        initiator_kv = self.replicas[initiator]
        peer_kv = self.replicas[peer]
        if self.exchange == "full":
            record = self._full_exchange(initiator, peer)
            self.scheduler.record_sync(initiator, peer)
            self.metrics.record(record)
            return record
        spec = get_protocol("kv")
        bits = 0
        messages = 0
        attempts = 0
        applied = 0
        success = in_sync = False
        for bound in self._bound_schedule():
            attempts += 1
            options = self.options.merged(difference_bound=bound)
            alice_party, bob_party = spec.build(peer_kv, initiator_kv, options)
            result = Session(alice_party, bob_party).run()
            bits += result.transcript.total_bits
            messages += len(result.transcript.messages)
            if result.alice.success and result.bob.success:
                applied += peer_kv.merge_records(result.alice.details["kv_apply"])
                applied += initiator_kv.merge_records(result.bob.details["kv_apply"])
                success = True
                in_sync = result.bob.details["kv_in_sync"]
                break
        record = GossipSessionRecord(
            round_index=self.rounds_run + 1,
            initiator=initiator,
            peer=peer,
            success=success,
            bits=bits,
            messages=messages,
            attempts=attempts,
            records_applied=applied,
            in_sync=in_sync,
        )
        self.scheduler.record_sync(initiator, peer)
        self.metrics.record(record)
        return record

    def _full_exchange(self, initiator: str, peer: str) -> GossipSessionRecord:
        """The baseline: both sides ship their whole record list."""
        initiator_kv = self.replicas[initiator]
        peer_kv = self.replicas[peer]
        initiator_records = initiator_kv.records()
        peer_records = peer_kv.records()
        bits = records_bits(initiator_records) + records_bits(peer_records)
        applied = peer_kv.merge_records(initiator_records)
        applied += initiator_kv.merge_records(peer_records)
        return GossipSessionRecord(
            round_index=self.rounds_run + 1,
            initiator=initiator,
            peer=peer,
            success=True,
            bits=bits,
            messages=2,
            attempts=1,
            records_applied=applied,
            in_sync=False,
        )

    # -- rounds and convergence -----------------------------------------------------

    def run_round(self) -> int:
        """Every live node initiates one sync; returns records applied."""
        round_index = self.rounds_run + 1
        applied = 0
        names = self.node_names
        for name in names:
            peer = self.scheduler.select_peer(name, round_index, names)
            applied += self.gossip_once(name, peer).records_applied
        self.rounds_run = round_index
        return applied

    def converged(self) -> bool:
        """Whether every live replica holds byte-identical state.

        Decided by the canonical state digests (cached per replica until
        its next installed record).  The O(1) summaries only screen: under
        the shared seed differing summaries prove differing states, an exact
        ``False``; agreeing ones prove nothing and the digests are compared.
        """
        replicas = self.replicas.values()
        if len({replica.summary() for replica in replicas}) > 1:
            return False
        return len({replica.digest() for replica in replicas}) <= 1

    def run_until_converged(self, max_rounds: int = 64) -> ConvergenceReport:
        """Gossip until byte-identical replicas (or ``max_rounds``)."""
        rounds = 0
        while not self.converged() and rounds < max_rounds:
            self.run_round()
            rounds += 1
        first = self.replicas[self.node_names[0]]
        return ConvergenceReport(
            converged=self.converged(),
            rounds=rounds,
            sessions=self.metrics.sessions_run,
            total_bits=self.metrics.total_bits,
            node_count=len(self.replicas),
            digest=first.digest(),
        )
