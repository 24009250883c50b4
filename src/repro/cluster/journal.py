"""The append-only record journal backing a :class:`~repro.cluster.VersionedKV`.

One journal file per replica, one JSON line per *applied* record::

    {"key": "user:7", "version": 12, "writer": 3, "value": "..."}

Replaying the journal through the replica's LWW merge rebuilds the exact
pre-crash state (the merge is idempotent, so records superseded later in
the file are simply overwritten again in order).  The crash model matches
:class:`~repro.store.journal.UpdateJournal`: a merge's winners are one
append (one write, one flush, one optional ``fsync``), a crash inside it
leaves complete lines and at most one torn trailing one, which is tolerated,
and a malformed interior line raises
:class:`~repro.errors.ClusterError` because everything after it is suspect.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterable

from repro.cluster.records import KVRecord
from repro.errors import ClusterError


def _line(record: KVRecord) -> str:
    return json.dumps(record.to_wire(), separators=(",", ":"), sort_keys=True) + "\n"


class RecordJournal:
    """Append-only log of applied records for one replica.

    Parameters
    ----------
    path:
        The journal file (created on first append).
    fsync:
        Force every append to stable storage; off by default, matching the
        sketch store's "survive process death" durability bar.
    """

    def __init__(self, path: Path | str, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle: IO[str] | None = None

    # -- writing --------------------------------------------------------------------

    def _repair_torn_tail(self) -> None:
        """Truncate a partial trailing line before the first append.

        A crash mid-append leaves the file without a final newline; opening
        in append mode would then concatenate the next record onto the torn
        fragment, turning a tolerated tail into fatal interior corruption.
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        with open(self.path, "r+b") as handle:
            handle.truncate(data.rfind(b"\n") + 1)

    def append(self, records: Iterable[KVRecord]) -> None:
        """Durably record one merge's winners before they mutate the replica."""
        lines = "".join(_line(record) for record in records)
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(lines)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    # -- reading --------------------------------------------------------------------

    def records(self) -> list[KVRecord]:
        """Every parseable record in append order, tolerating a torn tail.

        The last line is dropped when it is unterminated or fails to parse
        (the torn write of a crash mid-append); a line that fails to parse
        anywhere else raises :class:`ClusterError`.
        """
        if not self.path.exists():
            return []
        text = self.path.read_text(encoding="utf-8")
        lines = text.splitlines()
        last = len(lines) - 1  # the one line a crash mid-append may have torn
        if lines and not text.endswith("\n"):
            # The newline commits a line: the next append truncates an
            # unterminated tail, so replay must not count it either.
            lines.pop()
        parsed: list[KVRecord] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                parsed.append(KVRecord.from_wire(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if index == last:
                    break  # torn tail: the crash interrupted this append
                raise ClusterError(
                    f"corrupt journal entry at {self.path}:{index + 1}: {exc}"
                ) from exc
        return parsed

    # -- maintenance ----------------------------------------------------------------

    def compact(self, records: Iterable[KVRecord]) -> None:
        """Rewrite the journal to exactly the given (merged) records.

        Atomic (temp file + ``os.replace``): a crash during compaction
        leaves either the old or the new journal, never a mix.
        """
        self.close()
        temp = self.path.with_suffix(self.path.suffix + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "w", encoding="utf-8") as handle:
            handle.writelines(_line(record) for record in records)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(temp, self.path)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def unlink(self) -> None:
        """Remove the journal file."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
