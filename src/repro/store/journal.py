"""The append-only update journal backing :class:`~repro.store.SketchStore`.

One journal file per stored dataset, one JSON line per applied mutation
batch::

    {"seq": 7, "insert": [12, 99], "delete": [5]}

Sequence numbers are assigned by the store (strictly increasing per
dataset); a snapshot records the sequence number it captured, and restart
replays only the entries past it.  The file format is deliberately boring --
human-readable, greppable, and recoverable with a text editor.

Crash model: appends are flushed to the OS per entry (``fsync=True``
additionally forces them to disk), so a process death leaves at most one
*torn* trailing line.  :meth:`UpdateJournal.entries` tolerates exactly that
-- a final line that is unterminated or does not parse is dropped -- while a
malformed entry in the interior raises :class:`~repro.errors.StoreError`,
because data after it cannot be trusted to line up with the sequence numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterable

from repro.errors import StoreError

#: One journal entry: ``(seq, inserted keys, deleted keys)``.
JournalEntry = tuple[int, tuple[int, ...], tuple[int, ...]]


def _parse_line(line: str) -> JournalEntry:
    body = json.loads(line)
    seq = body["seq"]
    inserted = body.get("insert", [])
    deleted = body.get("delete", [])
    if not isinstance(seq, int) or not isinstance(inserted, list) or not isinstance(deleted, list):
        raise ValueError("journal entry fields have the wrong types")
    return (
        seq,
        tuple(int(key) for key in inserted),
        tuple(int(key) for key in deleted),
    )


class UpdateJournal:
    """Append-only mutation log for one stored dataset.

    Parameters
    ----------
    path:
        The journal file (created on first append).
    fsync:
        Force every append to stable storage.  Off by default: the store's
        durability bar is "survive process death", which the per-entry
        flush already provides; power-loss durability costs an fsync per
        mutation batch.
    """

    def __init__(self, path: Path, *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle: IO[str] | None = None

    # -- writing --------------------------------------------------------------------

    def _repair_torn_tail(self) -> None:
        """Truncate a partial trailing line before the first append.

        A crash mid-append leaves the file without a final newline; opening
        in append mode would then concatenate the next entry onto the torn
        fragment, turning a tolerated tail into fatal interior corruption.
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        with open(self.path, "r+b") as handle:
            handle.truncate(data.rfind(b"\n") + 1)

    def append(self, seq: int, inserted: Iterable[int], deleted: Iterable[int]) -> None:
        """Durably record one applied mutation batch."""
        line = json.dumps(
            {"seq": seq, "insert": list(inserted), "delete": list(deleted)},
            separators=(",", ":"),
        )
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    # -- reading --------------------------------------------------------------------

    def entries(self) -> list[JournalEntry]:
        """Every parseable entry, tolerating a torn trailing line.

        The last line is dropped when it is unterminated or fails to parse
        (the torn write of a crash mid-append); a line that fails to parse
        anywhere else raises :class:`StoreError`.
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
        parsed: list[JournalEntry] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                parsed.append(_parse_line(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if index == last:
                    break  # torn tail: the crash interrupted this append
                raise StoreError(
                    f"corrupt journal entry at {self.path}:{index + 1}: {exc}"
                ) from exc
        return parsed

    def replay(self, after_seq: int) -> list[JournalEntry]:
        """Entries with ``seq > after_seq``, in order (the restart path)."""
        return [entry for entry in self.entries() if entry[0] > after_seq]

    def last_seq(self) -> int:
        """Highest recorded sequence number (0 for a missing/empty journal)."""
        entries = self.entries()
        return entries[-1][0] if entries else 0

    # -- maintenance ----------------------------------------------------------------

    def compact(self, upto_seq: int) -> None:
        """Drop entries already captured by a snapshot (``seq <= upto_seq``).

        Rewrites atomically (temp file + ``os.replace``) so a crash during
        compaction leaves either the old or the new journal, never a mix.
        """
        keep = [entry for entry in self.entries() if entry[0] > upto_seq]
        self.close()
        if not self.path.exists() and not keep:
            return
        temp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            for seq, inserted, deleted in keep:
                handle.write(
                    json.dumps(
                        {"seq": seq, "insert": list(inserted), "delete": list(deleted)},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(temp, self.path)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def unlink(self) -> None:
        """Remove the journal file (cache invalidation)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
