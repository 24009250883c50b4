"""One replica of the last-writer-wins key-value store.

A :class:`VersionedKV` holds the record map and, alongside it, the *set
view* a gossip session reconciles: the set of 64-bit record fingerprints
(:func:`~repro.cluster.records.record_fingerprints`).  Every merge -- a
local write, a gossip round's records, journal replay -- installs its
winners through one in-process :class:`~repro.store.SketchStore` ``apply``
batch, so the live IBLTs, estimators, and verification hash tracking the
fingerprint set are maintained in O(1) per changed record -- a gossip
round then costs O(d) sketch work, never an O(n) re-encode.  The replica
also keeps an O(1) state summary and each installed record's canonical
digest bytes, so checking convergence after a round encodes nothing: the
digest is one sort and one join of those bytes, then one BLAKE2b call.

Durability is optional: given a ``journal_path`` the replica appends each
merge's winners to a :class:`~repro.store.journal.Journal` of
:data:`RECORDS` entries before mutating state, and a restarted replica
replays the journal through the same LWW merge (idempotent, so duplicates
and superseded records are harmless) to recover its exact pre-crash state.
A malformed interior line raises :class:`~repro.errors.ClusterError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Collection, Iterable

from repro.cluster.records import (
    FINGERPRINT_UNIVERSE,
    KVRecord,
    digest_state_bytes,
    record_fingerprints,
    record_state_bytes,
)
from repro.errors import ClusterError, ParameterError
from repro.store.config import SketchConfig
from repro.store.journal import Journal, LineCodec
from repro.store.parties import StoreView
from repro.store.sketch import SketchStore

#: The store key every replica files its fingerprint set under.
_STORE_KEY = "kv"

#: The replica's journal entries: one applied record per line.
RECORDS: LineCodec[KVRecord] = LineCodec(
    lambda record: json.dumps(record.to_wire(), separators=(",", ":"), sort_keys=True),
    lambda line, _previous: KVRecord.from_wire(json.loads(line)),
    ClusterError,
)


class VersionedKV:
    """One replica node's state: records, fingerprints, and live sketches.

    Parameters
    ----------
    node_id:
        This replica's writer id (the LWW tie-break between concurrent
        writers); must be unique per cluster.
    seed:
        Public-coin seed shared by every replica in the cluster.  Record
        fingerprints are derived from it, so replicas with different seeds
        hold incompatible fingerprint sets and refuse to gossip.
    journal_path:
        Optional record journal; when given, each merge's winners are
        journaled before they mutate state and replayed on construction.
    metrics:
        Optional sink forwarded to the internal sketch store (anything
        with ``record_store_hit``-style methods, e.g.
        :class:`~repro.service.metrics.ServiceMetrics`).
    """

    def __init__(
        self,
        node_id: int,
        *,
        seed: int = 0,
        journal_path: Path | str | None = None,
        fsync: bool = False,
        metrics: Any = None,
    ) -> None:
        if node_id < 0:
            raise ParameterError("node_id must be non-negative")
        self.node_id = node_id
        self.seed = seed
        self.clock = 0
        self._records: dict[str, KVRecord] = {}
        # Per key, the held record's fingerprint and its state_digest bytes,
        # both computed once when the record is installed.
        self._fingerprint_of: dict[str, int] = {}
        self._state_bytes: dict[str, bytes] = {}
        self._fingerprints: set[int] = set()
        self._key_by_fingerprint: dict[int, str] = {}
        self._fingerprint_xor = 0
        self._digest: str | None = None  # cached until the next installed record
        self.store = SketchStore(metrics=metrics)
        self._journal: Journal[KVRecord] | None = None
        if journal_path is not None:
            journal = Journal(journal_path, RECORDS, fsync=fsync)
            # Replay is the ordinary merge, run before the journal is
            # attached so that it does not journal itself.
            self.merge_records(journal.entries())
            self._journal = journal

    # -- local writes ----------------------------------------------------------------

    def put(self, key: str, value: str) -> KVRecord:
        """Write ``key = value`` at the next local version; returns the record."""
        record = KVRecord(key=key, version=self.clock + 1, writer=self.node_id, value=value)
        self.merge_records([record])
        return record

    def delete(self, key: str) -> KVRecord:
        """Write a tombstone for ``key`` (deletions replicate like writes)."""
        record = KVRecord(key=key, version=self.clock + 1, writer=self.node_id, value=None)
        self.merge_records([record])
        return record

    # -- merge (local writes, gossip and journal replay all land here) ---------------

    def merge_records(self, records: Iterable[KVRecord]) -> int:
        """LWW-merge records into this replica; returns how many applied.

        Commutative, associative, and idempotent: merging any multiset of
        records in any order yields the same state, which is what makes
        anti-entropy gossip converge.  The batch's winners are resolved
        first, in input order, and installed together; a record superseded
        later in its own batch still counts as applied.
        """
        winners: dict[str, KVRecord] = {}
        applied = 0
        for record in records:
            key = record.key
            if record.wins_over(winners.get(key, self._records.get(key))):
                winners[key] = record
                applied += 1
        if winners:
            self._apply(winners.values())
        return applied

    def _apply(self, records: Collection[KVRecord]) -> None:
        """Install LWW winners (one per key): journal, one store batch, maps."""
        installed: dict[int, KVRecord] = {}
        deleted: list[int] = []
        for record, new_fp in zip(records, record_fingerprints(self.seed, records)):
            owner = self._key_by_fingerprint.get(new_fp)
            if owner is None and new_fp in installed:
                owner = installed[new_fp].key
            if owner is not None:
                # Same element for a different record: a 64-bit fingerprint
                # collision.  Astronomically unlikely; refusing loudly beats
                # silently desynchronizing the sketches from the record map.
                raise ClusterError(
                    f"fingerprint collision: record for {record.key!r} maps to the "
                    f"element already held by {owner!r}"
                )
            installed[new_fp] = record
            old_fp = self._fingerprint_of.get(record.key)
            if old_fp is not None:
                deleted.append(old_fp)
        if self._journal is not None:
            self._journal.append(records)
        # Pre-mutation dataset: SketchStore.apply sizes a fresh entry from
        # it and updates every live sketch in O(1) per changed element (they
        # are linear, so one batch equals one call per record bit for bit).
        self.store.apply(_STORE_KEY, installed.keys(), deleted, dataset=self._fingerprints)
        self._digest = None
        for old_fp in deleted:
            self._fingerprints.discard(old_fp)
            del self._key_by_fingerprint[old_fp]
            self._fingerprint_xor ^= old_fp
        for new_fp, record in installed.items():
            self._fingerprints.add(new_fp)
            self._key_by_fingerprint[new_fp] = record.key
            self._fingerprint_xor ^= new_fp
            self._records[record.key] = record
            self._fingerprint_of[record.key] = new_fp
            self._state_bytes[record.key] = record_state_bytes(record)
            if record.version > self.clock:
                self.clock = record.version

    # -- reads -----------------------------------------------------------------------

    def get(self, key: str) -> str | None:
        """The current value for ``key`` (``None`` if absent or deleted)."""
        record = self._records.get(key)
        return None if record is None or record.tombstone else record.value

    def record(self, key: str) -> KVRecord | None:
        return self._records.get(key)

    def records(self) -> list[KVRecord]:
        """Every record (tombstones included), sorted by key."""
        return [self._records[key] for key in sorted(self._records)]

    def records_for(self, fingerprints: Iterable[int]) -> tuple[KVRecord, ...]:
        """The records behind verified fingerprints of *this* replica's set."""
        found: list[KVRecord] = []
        for fingerprint in fingerprints:
            key = self._key_by_fingerprint.get(fingerprint)
            if key is None:
                raise ClusterError(
                    f"fingerprint {fingerprint:#x} is not in this replica's set"
                )
            found.append(self._records[key])
        return tuple(found)

    @property
    def fingerprints(self) -> frozenset[int]:
        return frozenset(self._fingerprints)

    def __len__(self) -> int:
        return len(self._records)

    def digest(self) -> str:
        """Canonical state digest; equality across replicas == convergence.

        Equal to :func:`~repro.cluster.records.state_digest` of
        :meth:`records`, from the bytes kept per installed record.
        """
        if self._digest is None:
            state = self._state_bytes
            self._digest = digest_state_bytes(map(state.__getitem__, sorted(state)))
        return self._digest

    def summary(self) -> tuple[int, int]:
        """``(record count, XOR of held fingerprints)``, kept in O(1) per
        installed record.  A function of the state under the cluster's
        shared seed, so replicas whose summaries differ hold different
        states; equal summaries prove nothing and :meth:`digest` decides.
        """
        return len(self._records), self._fingerprint_xor

    # -- the session-facing seam -----------------------------------------------------

    def view_for(self, config: SketchConfig) -> StoreView:
        """The store view a gossip session's parties serve sketches from.

        The first touch of a given sketch geometry encodes the fingerprint
        set once; afterwards every sketch is maintained incrementally by
        :meth:`_apply`, so repeat gossip rounds are O(d).
        """
        if config.universe_size != FINGERPRINT_UNIVERSE:
            raise ParameterError(
                "kv sessions reconcile 64-bit record fingerprints; "
                f"universe_size must be 2**64, got {config.universe_size}"
            )
        if config.seed != self.seed:
            raise ClusterError(
                f"session seed {config.seed} disagrees with this replica's "
                f"fingerprint seed {self.seed}; the fingerprint sets would be "
                "incompatible"
            )
        return StoreView(self.store, _STORE_KEY, config, self._fingerprints)

    # -- durability ------------------------------------------------------------------

    def compact_journal(self) -> None:
        """Rewrite the journal down to the current merged state."""
        if self._journal is None:
            raise ClusterError("this replica has no journal to compact")
        self._journal.rewrite(self.records())

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
