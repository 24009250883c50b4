"""Cluster-level accounting: per-session records and convergence reports.

Every gossip session contributes one :class:`GossipSessionRecord` whose
``bits`` field is the session transcript's ``total_bits`` -- summing the
records therefore matches the summed transcripts *exactly*, which is what
the acceptance tests pin.  Failed attempts are counted too (their sketches
crossed the wire), mirroring how the repeated-doubling protocols charge
every round they spend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class GossipSessionRecord:
    """One pairwise gossip session (including its failed attempts)."""

    round_index: int
    initiator: str
    peer: str
    success: bool
    bits: int
    messages: int
    attempts: int
    records_applied: int
    #: Ended by the summary prelude: the replicas already agreed.
    in_sync: bool


@dataclass
class ClusterMetrics:
    """Accumulates gossip session records for one cluster run."""

    sessions: list[GossipSessionRecord] = field(default_factory=list)

    def record(self, session: GossipSessionRecord) -> None:
        self.sessions.append(session)

    @property
    def total_bits(self) -> int:
        """Exact sum of every session transcript's charged bits."""
        return sum(session.bits for session in self.sessions)

    @property
    def sessions_run(self) -> int:
        return len(self.sessions)

    @property
    def failures(self) -> int:
        return sum(1 for session in self.sessions if not session.success)

    @property
    def in_sync_sessions(self) -> int:
        return sum(1 for session in self.sessions if session.in_sync)

    def bits_for_round(self, round_index: int) -> int:
        return sum(
            session.bits
            for session in self.sessions
            if session.round_index == round_index
        )

    def round_rows(self) -> list[dict[str, Any]]:
        """Per-round summary rows for :func:`repro.bench.format_table`."""
        rounds = sorted({session.round_index for session in self.sessions})
        rows = []
        for round_index in rounds:
            in_round = [s for s in self.sessions if s.round_index == round_index]
            rows.append(
                {
                    "round": round_index,
                    "sessions": len(in_round),
                    "bits": sum(s.bits for s in in_round),
                    "applied": sum(s.records_applied for s in in_round),
                    "failed": sum(1 for s in in_round if not s.success),
                    "in_sync": sum(1 for s in in_round if s.in_sync),
                }
            )
        return rows


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of :meth:`~repro.cluster.cluster.Cluster.run_until_converged`."""

    converged: bool
    rounds: int
    sessions: int
    total_bits: int
    node_count: int
    digest: str
