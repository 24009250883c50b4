"""The append-only line journal behind the store and the gossip replica.

One journal file holds one entry per line; a :class:`LineCodec` says what
an entry is.  Two codecs exist: :data:`UPDATES`, the
:class:`~repro.store.SketchStore`'s applied mutation batches::

    {"seq":7,"insert":[12,99],"delete":[5]}

and :data:`~repro.cluster.replica.RECORDS`, a
:class:`~repro.cluster.VersionedKV` replica's applied records.  The file
format is deliberately boring -- human-readable, greppable, and
recoverable with a text editor.

Crash model: :meth:`Journal.append` is one write and one flush (plus an
``fsync`` when asked), so a process death leaves complete lines and at
most one *torn* trailing one.  :meth:`Journal.entries` tolerates exactly
that -- a final line that is unterminated or does not decode is dropped --
while an entry that fails to decode in the interior raises the codec's
error, because data after it cannot be trusted.  Every byte read back is
hostile: a decoder checks each field's type and range rather than
coercing it.  :meth:`Journal.rewrite` and the store's snapshots go through
:func:`atomic_write`, so a crash during either leaves the old file or the
new one, never a mix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Generic, Iterable, TypeVar

from repro.errors import ReproError, StoreError

T = TypeVar("T")


@dataclass(frozen=True)
class LineCodec(Generic[T]):
    """What one journal entry is.

    ``encode`` renders an entry as one line (no newline); ``decode`` parses
    a line given the entry decoded before it (``None`` for the first) and
    raises ``KeyError``, ``TypeError`` or ``ValueError`` on anything it does
    not accept; ``error`` is what interior corruption raises.
    """

    encode: Callable[[T], str]
    decode: Callable[[str, T | None], T]
    error: type[ReproError]


def atomic_write(path: Path, text: str, *, fsync: bool) -> None:
    """Replace ``path`` with ``text``: temp file, flush, optional fsync,
    then ``os.replace``, so a crash leaves the old file or the new one."""
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(temp, path)


class Journal(Generic[T]):
    """Append-only log of ``codec`` entries in one file.

    Parameters
    ----------
    path:
        The journal file (created on first append).
    codec:
        What an entry is (:data:`UPDATES` or
        :data:`~repro.cluster.replica.RECORDS`).
    fsync:
        Force every append and rewrite to stable storage.  Off by default:
        the durability bar is "survive process death", which the per-append
        flush already provides; power-loss durability costs an fsync per
        append.
    """

    def __init__(self, path: Path | str, codec: LineCodec[T], *, fsync: bool = False) -> None:
        self.path = Path(path)
        self.codec = codec
        self.fsync = fsync
        self._handle: IO[str] | None = None

    def _lines(self, entries: Iterable[T]) -> str:
        return "".join(self.codec.encode(entry) + "\n" for entry in entries)

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

    def append(self, entries: Iterable[T]) -> None:
        """Record entries in one write, before they mutate in-memory state."""
        text = self._lines(entries)
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._repair_torn_tail()
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(text)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def entries(self) -> list[T]:
        """Every decodable entry in append order, tolerating a torn tail.

        The last line is dropped when it is unterminated or fails to decode
        (the torn write of a crash mid-append); a line that fails to decode
        anywhere else raises the codec's error.
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
        parsed: list[T] = []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                parsed.append(self.codec.decode(line, parsed[-1] if parsed else None))
            except (KeyError, TypeError, ValueError) as exc:
                if index == last:
                    break  # torn tail: the crash interrupted this append
                raise self.codec.error(
                    f"corrupt journal entry at {self.path}:{index + 1}: {exc}"
                ) from exc
        return parsed

    def rewrite(self, entries: Iterable[T]) -> None:
        """Atomically replace the journal with exactly ``entries``.

        Rewriting a missing journal to nothing leaves it missing.
        """
        text = self._lines(entries)
        self.close()
        if text or self.path.exists():
            atomic_write(self.path, text, fsync=self.fsync)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def unlink(self) -> None:
        """Remove the journal file (cache invalidation)."""
        self.close()
        self.path.unlink(missing_ok=True)


#: One store journal entry: ``(seq, inserted keys, deleted keys)``.
Update = tuple[int, tuple[int, ...], tuple[int, ...]]


def _encode_update(entry: Update) -> str:
    seq, inserted, deleted = entry
    return json.dumps(
        {"seq": seq, "insert": list(inserted), "delete": list(deleted)},
        separators=(",", ":"),
    )


def _decode_update(line: str, previous: Update | None) -> Update:
    body = json.loads(line)
    seq = body["seq"]
    inserted = body.get("insert", [])
    deleted = body.get("delete", [])
    if type(seq) is not int or (previous is not None and seq <= previous[0]):
        raise ValueError(f"seq {seq!r} is not an integer past the previous line's")
    if not isinstance(inserted, list) or not isinstance(deleted, list):
        raise ValueError("insert and delete must be lists")
    for key in inserted + deleted:
        if type(key) is not int or key < 0:
            raise ValueError(f"keys must be non-negative integers, got {key!r}")
    return seq, tuple(inserted), tuple(deleted)


#: The store's entries: one applied mutation batch per line.
UPDATES: LineCodec[Update] = LineCodec(_encode_update, _decode_update, StoreError)
