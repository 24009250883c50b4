"""The sketch store: one live, incrementally-maintained sketch per dataset.

The IBLT and the set-difference estimators are *linear* sketches: inserting
or deleting a key touches ``num_hashes`` cells (or ``O(log n)`` counters),
and updates commute.  A table kept live across mutations is therefore
bit-identical to one rebuilt from scratch over the mutated set -- which is
what lets a server answer a sync in O(d) work instead of re-encoding O(n)
elements per session.  :class:`SketchStore` owns that live state:

* per dataset and config fingerprint, one *sketch family*:

  * IBLTs keyed on ``num_cells`` -- the same physical table serves every
    difference bound that sizes to the same cell count;
  * per side, a live difference estimator for the unknown-``d`` flow (side
    1 for serving as bob, side 2 for serving as alice);
  * the running whole-set verification hash.  The hash is the XOR fold of
    one keyed splitmix64 checksum per element
    (:func:`~repro.protocols.parties.setrecon.set_verification_hash`, i.e.
    :meth:`~repro.hashing.checksum.Checksum.of_set`), so a mutation toggles
    it in O(d) too;

* the dataset's size, maintained arithmetically.

The config (universe and seed) and the difference bound are chosen
by the *peer*, and every live sketch costs every later
:meth:`~SketchStore.apply` an update, so what stays live is capped: at most
:data:`MAX_LIVE_FAMILIES` families per dataset and
:data:`MAX_TABLES_PER_FAMILY` tables per family, least recently served
evicted first (a family goes with its tables, estimators and hash
together).  Eviction only forgets work: the next session that wants an
evicted sketch is a recorded miss and a rebuild, never a wrong answer.

Durability (optional, enabled by passing a ``root`` directory) is a
snapshot per dataset (written by :func:`~repro.store.journal.atomic_write`;
tables persist via :meth:`~repro.iblt.table.IBLT.serialize`) plus an
append-only :class:`~repro.store.journal.Journal` of
:data:`~repro.store.journal.UPDATES` entries.  Restart loads the snapshot
and replays the journal suffix; a snapshot or table whose recorded
parameters disagree with what its recorded config would derive today, a
journal suffix that does not decode or apply, or a replayed state whose
size or whole-set hash disagrees with the supplied dataset's, is discarded
and counted as an invalidation (see
:meth:`~repro.store.config.SketchConfig.admits_params`).

Metrics are duck-typed: any object with the ``record_store_*`` /
``record_journal_replay`` / ``record_snapshot*`` methods of
:class:`~repro.service.metrics.ServiceMetrics` can ride along; ``None``
disables recording.  The store never imports the service layer.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any, Iterable

from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError, ReproError, StoreError
from repro.estimator import L0Estimator
from repro.iblt import IBLT, IBLTParameters
from repro.store.config import SketchConfig
from repro.store.journal import UPDATES, Journal, Update, atomic_write

#: Snapshot schema version; bumped on incompatible changes (older snapshots
#: are then discarded as invalidations, never misread).  Version 2: the
#: running verification hashes became the splitmix64 set fold, so a version-1
#: snapshot's ``hashes`` hold values no peer computes any more.  Version 3:
#: the L0 estimator hashes with splitmix64 too, so an older snapshot's
#: ``estimators`` hold counters of another hash (the layout did not change).
#: Version 4: an L0 estimator's state is its compact wire frame; read as
#: one, an older snapshot's dense two-bits-per-counter state is refused or
#: misread.  Version 5: tables hold 4-bit wrapped counts and 16-bit
#: checksums, so an older snapshot's tables have cells of another width.
SNAPSHOT_VERSION = 5

#: Live sketch families (distinct config fingerprints) kept per dataset, and
#: live tables (distinct cell counts) kept per family.  Both are chosen by
#: whoever connects, so both are bounded; a deployment's handful of option
#: sets (the end-to-end serving workloads share four) never comes close.
MAX_LIVE_FAMILIES = 16
MAX_TABLES_PER_FAMILY = 8


def _safe_filename(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key) or "_"


def _verification_hash(seed: int, elements: Iterable[int]) -> int:
    from repro.protocols.parties.setrecon import set_verification_hash

    return set_verification_hash(seed, elements)


class _Family:
    """Every live sketch of one config: what is served, and evicted, together."""

    def __init__(self, config: SketchConfig) -> None:
        self.config = config
        self.tables: dict[int, IBLT] = {}  # num_cells -> table, LRU first
        self.estimators: dict[int, L0Estimator] = {}  # side -> estimator
        self.hash: int | None = None  # running XOR hash, folded when first built

    def keep_table(self, table: IBLT) -> None:
        """File ``table`` as the most recently served one."""
        self.tables.pop(table.params.num_cells, None)
        if len(self.tables) >= MAX_TABLES_PER_FAMILY:
            del self.tables[next(iter(self.tables))]
        self.tables[table.params.num_cells] = table


class _DatasetEntry:
    """The live sketches of one stored dataset."""

    def __init__(self, key: str, size: int) -> None:
        self.key = key
        self.size = size
        self.seq = 0  # sequence number of the last applied mutation batch
        self.snapshot_seq = -1  # seq captured by the on-disk snapshot
        self.families: dict[str, _Family] = {}  # fingerprint -> family, LRU first
        self.journal: Journal[Update] | None = None

    def family(self, config: SketchConfig) -> _Family:
        """The family for ``config``, marked most recently served."""
        family = self.families.pop(config.fingerprint, None)
        if family is None:
            family = _Family(config)
            if len(self.families) >= MAX_LIVE_FAMILIES:
                del self.families[next(iter(self.families))]
        self.families[config.fingerprint] = family
        return family


class SketchStore:
    """Live sketches for any number of named datasets.

    Parameters
    ----------
    root:
        Directory for snapshots and journals; ``None`` keeps the store
        purely in memory (no durability, no anti-entropy).
    metrics:
        Optional counter sink (duck-typed to
        :class:`~repro.service.metrics.ServiceMetrics`).
    fsync:
        Force journal appends and snapshots to stable storage.

    The tables and estimators handed out by :meth:`table_for` /
    :meth:`estimator_for` are the *live* objects -- callers must treat them
    as immutable (``copy()`` before mutating, as the store-backed parties
    do) and must route every dataset change through :meth:`apply`.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        metrics: Any = None,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.metrics = metrics
        self.fsync = fsync
        self._entries: dict[str, _DatasetEntry] = {}
        self._lock = threading.RLock()
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    # -- plumbing -------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.root is not None

    def _metric(self, name: str, *args: Any) -> None:
        if self.metrics is not None:
            getattr(self.metrics, name)(*args)

    def _snapshot_path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{_safe_filename(key)}.snapshot.json"

    def _journal_path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{_safe_filename(key)}.journal.jsonl"

    def loaded_datasets(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    # -- entry lifecycle ------------------------------------------------------------

    def _entry(self, key: str, dataset: Any) -> _DatasetEntry:
        entry = self._entries.get(key)
        if entry is not None:
            return entry
        journal = (
            Journal(self._journal_path(key), UPDATES, fsync=self.fsync)
            if self.durable
            else None
        )
        if self.durable:
            entry = self._load_entry(key, dataset, journal)
        if entry is None:
            if dataset is None:
                raise StoreError(
                    f"dataset {key!r} is not loaded and no data was supplied"
                )
            entry = _DatasetEntry(key, len(dataset))
            if journal is not None:
                # A leftover journal without a (valid) snapshot describes
                # mutations the supplied dataset already reflects; continue
                # its sequence numbering instead of colliding with it.
                try:
                    entry.seq = max((seq for seq, _, _ in journal.entries()), default=0)
                except StoreError:
                    self._metric("record_store_invalidation")
                    journal.unlink()
        entry.journal = journal
        self._entries[key] = entry
        return entry

    def _load_entry(
        self, key: str, dataset: Any, journal: Journal[Update]
    ) -> _DatasetEntry | None:
        path = self._snapshot_path(key)
        if not path.exists():
            return None
        try:
            body = json.loads(path.read_text(encoding="utf-8"))
            if body.get("version") != SNAPSHOT_VERSION:
                raise ValueError(f"unsupported snapshot version {body.get('version')!r}")
            entry = self._entry_from_snapshot(key, body)
        except (OSError, ValueError, KeyError, TypeError, ReproError):
            self._metric("record_store_invalidation")
            return None
        try:
            replayed = [update for update in journal.entries() if update[0] > entry.seq]
            for seq, inserted, deleted in replayed:
                self._apply_to_entry(entry, inserted, deleted)
                entry.seq = seq
        except ReproError:
            # Interior journal corruption, or a replayed batch no live
            # sketch can hold: the snapshot is sound but the mutations past
            # it cannot be trusted to line up with the dataset.  Rebuild
            # from supplied data instead of serving a silently stale sketch.
            self._metric("record_store_invalidation")
            journal.unlink()
            path.unlink(missing_ok=True)
            return None
        if replayed:
            self._metric("record_journal_replay", len(replayed))
        if dataset is not None and (
            entry.size != len(dataset) or self._hash_disagrees(entry, dataset)
        ):
            # The dataset changed without going through apply(), or the
            # journal lost or doubled a batch that kept the size: every
            # cached sketch is suspect.  Drop the persisted state too.
            self._metric("record_store_invalidation")
            journal.unlink()
            path.unlink(missing_ok=True)
            return None
        return entry

    @staticmethod
    def _hash_disagrees(entry: _DatasetEntry, dataset: Any) -> bool:
        """Whether a replayed whole-set hash differs from the supplied
        dataset's: O(n) once per load and per seed, against a size check
        that a batch of as many inserts as deletes passes.  Every loaded
        family has one: a snapshot that lacks it is refused."""
        replayed = {family.config.seed: family.hash for family in entry.families.values()}
        return any(
            value != _verification_hash(seed, dataset) for seed, value in replayed.items()
        )

    def _entry_from_snapshot(self, key: str, body: dict[str, Any]) -> _DatasetEntry:
        entry = _DatasetEntry(key, int(body["size"]))
        entry.seq = entry.snapshot_seq = int(body["seq"])
        for item in body.get("tables", []):
            config = SketchConfig.from_wire(item["config"])
            params = IBLTParameters(
                **{name: int(value) for name, value in item["params"].items()}
            )
            if not config.admits_params(params):
                self._metric("record_store_invalidation")
                continue
            table = IBLT.deserialize(params, int(item["cells"], 16))
            entry.family(config).keep_table(table)
        for item in body.get("estimators", []):
            config = SketchConfig.from_wire(item["config"])
            estimator = config.context().make_estimator()
            estimator.read_wire(BitReader(bytes.fromhex(item["state"])))
            entry.family(config).estimators[int(item["side"])] = estimator
        hashes = {int(seed): int(value) for seed, value in body["hashes"].items()}
        for family in entry.families.values():
            family.hash = hashes[family.config.seed]
        return entry

    # -- the incremental core -------------------------------------------------------

    @staticmethod
    def _apply_to_entry(
        entry: _DatasetEntry, inserted: Iterable[int], deleted: Iterable[int]
    ) -> None:
        inserted = list(inserted)
        deleted = list(deleted)
        # Kind by kind, not family by family: interleaving the vectorised table
        # updates with the scalar hash folds measured ~4% slower per batch.
        families = list(entry.families.values())
        for family in families:
            for table in family.tables.values():
                table.insert_batch(inserted)
                table.delete_batch(deleted)
        for family in families:
            for side, estimator in family.estimators.items():
                estimator.update_all(inserted, side)
                # Deleting x from side s cancels its earlier +-1 contribution:
                # the counters are mod-4 (or cell counts), so adding x to the
                # *other* side is exactly the inverse update.
                estimator.update_all(deleted, 2 if side == 1 else 1)
        for family in families:
            if family.hash is not None:
                seed = family.config.seed
                family.hash ^= _verification_hash(seed, inserted) ^ _verification_hash(
                    seed, deleted
                )
        entry.size += len(inserted) - len(deleted)

    def apply(
        self,
        key: str,
        inserted: Iterable[int],
        deleted: Iterable[int],
        dataset: Any = None,
    ) -> int:
        """Record one *effective* mutation batch against every live sketch.

        ``inserted`` must be disjoint from the dataset before the batch and
        ``deleted`` a subset of it (the service layer filters no-ops before
        calling); the dataset itself is the caller's to update.  Returns the
        assigned sequence number.  The batch is journaled (write-ahead) when
        the store is durable; if a sketch update then fails -- e.g. a key
        outside a cached config's universe -- the entry is invalidated
        wholesale (memory and disk) so no half-applied state survives, and
        :class:`~repro.errors.StoreError` is raised.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entry(key, dataset)
            inserted = tuple(inserted)
            deleted = tuple(deleted)
            seq = entry.seq + 1
            if entry.journal is not None:
                entry.journal.append([(seq, inserted, deleted)])
            try:
                self._apply_to_entry(entry, inserted, deleted)
            except (ReproError, ArithmeticError, LookupError, TypeError, ValueError) as exc:
                # What a bad batch can actually raise: parameter/width checks
                # (ReproError), overflow, and malformed keys.
                self.invalidate(key)
                raise StoreError(
                    f"mutation batch poisoned the live sketches for {key!r} "
                    f"(entry invalidated): {exc}"
                ) from exc
            except BaseException:
                # Even an unexpected failure (including KeyboardInterrupt
                # mid-batch) must not leave half-applied sketches behind.
                self.invalidate(key)
                raise
            entry.seq = seq
            return seq

    # -- sketch access --------------------------------------------------------------

    @staticmethod
    def _family(entry: _DatasetEntry, config: SketchConfig, dataset: Any) -> _Family:
        """``entry``'s family for ``config``; one built from ``dataset`` gets
        its whole-set hash folded then, so every snapshot of it persists the
        hash that guards its replay."""
        family = entry.family(config)
        if family.hash is None and dataset is not None:
            family.hash = _verification_hash(config.seed, dataset)
        return family

    def table_for(
        self, key: str, config: SketchConfig, difference_bound: int, dataset: Any
    ) -> IBLT:
        """The live IBLT for ``(dataset, config)`` sized for ``difference_bound``."""
        params = config.context().table_params(difference_bound)
        return self.table_for_params(key, config, params, dataset)

    def table_for_params(
        self, key: str, config: SketchConfig, params: IBLTParameters, dataset: Any
    ) -> IBLT:
        """Like :meth:`table_for` but keyed by explicit table parameters.

        The unknown-``d`` bob side learns the table geometry from the
        self-describing bound header rather than from shared knowledge, so
        it looks up by the received parameters; they must still be ones
        this config could have derived (:meth:`SketchConfig.admits_params`).
        """
        if not config.admits_params(params):
            raise StoreError(
                "table parameters disagree with the store's protocol config "
                f"for dataset {key!r}"
            )
        with self._lock:
            family = self._family(self._entry(key, dataset), config, dataset)
            table = family.tables.get(params.num_cells)
            if table is not None:
                self._metric("record_store_hit")
            else:
                self._metric("record_store_miss")
                if dataset is None:
                    raise StoreError(
                        f"no cached table for dataset {key!r} and no data to encode"
                    )
                table = IBLT.from_items(params, dataset)
            family.keep_table(table)
            return table

    def estimator_for(
        self, key: str, config: SketchConfig, side: int, dataset: Any
    ) -> L0Estimator:
        """The live difference estimator for ``(dataset, config, side)``.

        ``side=1`` serves the bob role (his elements are ``S1``), ``side=2``
        the alice role, matching the scratch parties' update sides so that
        merged estimates -- counter-wise sums -- are identical.
        """
        if side not in (1, 2):
            raise ParameterError(f"estimator side must be 1 or 2, got {side}")
        with self._lock:
            estimators = self._family(self._entry(key, dataset), config, dataset).estimators
            estimator = estimators.get(side)
            if estimator is not None:
                self._metric("record_store_hit")
                return estimator
            self._metric("record_store_miss")
            if dataset is None:
                raise StoreError(
                    f"no cached estimator for dataset {key!r} and no data to encode"
                )
            estimator = estimators[side] = config.context().make_estimator()
            estimator.update_all(dataset, side)
            return estimator

    def verification_hash(self, key: str, config: SketchConfig, dataset: Any) -> int:
        """The running whole-set verification hash for ``config.seed``."""
        with self._lock:
            family = self._family(self._entry(key, dataset), config, dataset)
            if family.hash is None:
                raise StoreError(f"no cached hash for dataset {key!r} and no data to fold")
            return family.hash

    def size_of(self, key: str, dataset: Any = None) -> int:
        """The maintained dataset size."""
        with self._lock:
            return self._entry(key, dataset).size

    # -- durability -----------------------------------------------------------------

    def snapshot(self, key: str) -> Path:
        """Atomically persist one dataset's sketches; compacts its journal."""
        if self.root is None:
            raise StoreError("snapshot requires a durable store (pass a root directory)")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                raise StoreError(f"dataset {key!r} is not loaded")
            body: dict[str, Any] = {
                "version": SNAPSHOT_VERSION,
                "dataset": key,
                "seq": entry.seq,
                "size": entry.size,
                "hashes": {
                    str(family.config.seed): family.hash
                    for family in entry.families.values()
                    if family.hash is not None
                },
                "tables": [
                    {
                        "config": family.config.to_wire(),
                        "params": {
                            "num_cells": table.params.num_cells,
                            "key_bits": table.params.key_bits,
                            "seed": table.params.seed,
                            "num_hashes": table.params.num_hashes,
                            "checksum_bits": table.params.checksum_bits,
                            "count_bits": table.params.count_bits,
                        },
                        "cells": format(table.serialize(), "x"),
                    }
                    for family in entry.families.values()
                    for table in family.tables.values()
                ],
                "estimators": [
                    {
                        "config": family.config.to_wire(),
                        "side": side,
                        "state": self._estimator_state(estimator),
                    }
                    for family in entry.families.values()
                    for side, estimator in family.estimators.items()
                ],
            }
            path = self._snapshot_path(key)
            atomic_write(path, json.dumps(body), fsync=self.fsync)
            entry.snapshot_seq = entry.seq
            if entry.journal is not None:
                entry.journal.rewrite(
                    update for update in entry.journal.entries() if update[0] > entry.seq
                )
            self._metric("record_snapshot")
            return path

    @staticmethod
    def _estimator_state(estimator: L0Estimator) -> str:
        writer = BitWriter()
        estimator.write_wire(writer)
        return writer.getvalue().hex()

    def is_dirty(self, key: str) -> bool:
        """Whether the dataset has mutations (or sketches) not yet snapshotted."""
        if not self.durable:
            return False
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.seq > entry.snapshot_seq

    def dirty_datasets(self) -> list[str]:
        """Loaded datasets whose on-disk state lags the live sketches."""
        if not self.durable:
            return []
        with self._lock:
            return sorted(
                key
                for key, entry in self._entries.items()
                if entry.seq > entry.snapshot_seq
            )

    def journal_lag(self, key: str) -> int:
        """Mutation batches applied since the last snapshot (staleness gauge)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return 0
            return max(0, entry.seq - max(entry.snapshot_seq, 0))

    def flush(self) -> int:
        """Snapshot every dirty dataset; returns how many were written."""
        written = 0
        for key in self.dirty_datasets():
            self.snapshot(key)
            written += 1
        return written

    # -- invalidation ----------------------------------------------------------------

    def invalidate(self, key: str) -> None:
        """Drop one dataset's sketches, snapshot, and journal."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None and entry.journal is not None:
                entry.journal.unlink()
            elif self.durable:
                self._journal_path(key).unlink(missing_ok=True)
            if self.durable:
                self._snapshot_path(key).unlink(missing_ok=True)
            self._metric("record_store_invalidation")

    def close(self) -> None:
        """Release journal file handles (sketches stay in memory)."""
        with self._lock:
            for entry in self._entries.values():
                if entry.journal is not None:
                    entry.journal.close()
