"""Versioned key-value records and their 64-bit set fingerprints.

A replica's state is a mapping ``key -> KVRecord``; the *set* a gossip
round reconciles is the set of record fingerprints, one 64-bit element per
``(key, version, writer, value)`` tuple, derived with the same splitmix64
mixing the IBLT hash paths use.  Two replicas that hold the same record
contribute the same element; a key they disagree on contributes one element
per side, so the symmetric difference of the fingerprint sets is exactly
the set of records that differ -- the quantity ``d`` the paper's sketches
are sized by.

Conflict resolution is deterministic last-writer-wins: records are totally
ordered by ``(version, writer, tombstone-rank, value)``, so any two
replicas merging the same records in any order converge to the same state
(the merge is commutative, associative, and idempotent).

The wire encoding is bit-exact: :func:`record_bits` is the charged size and
:func:`write_record` produces exactly that many bits, so session
transcripts account for every value byte shipped in phase two of a gossip
round.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Sequence

from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError
from repro.hashing import derive_seed
from repro.hashing.mix import MASK64, mix64
from repro.protocols.wire import WireError

#: Every record fingerprint is a 64-bit element; sessions reconcile sets
#: drawn from this universe.
FINGERPRINT_UNIVERSE = 1 << 64

#: Wire-field widths (bits) of the record encoding.
KEY_LENGTH_BITS = 16
VERSION_BITS = 64
WRITER_BITS = 32
TOMBSTONE_BITS = 1
VALUE_LENGTH_BITS = 24
#: List-length prefix of the phase-two value-fetch frames.
COUNT_BITS = 32

#: Mixed into tombstone fingerprints in place of a value hash, so deleting
#: a key maps to a different element than any live value for it.
_TOMBSTONE_SALT = 0x746F6D6273746F6E  # b"tombston" as an integer


def _text_hash64(data: bytes, *, person: bytes) -> int:
    """Fold arbitrary bytes to a 64-bit word (keyed BLAKE2b, like
    :func:`~repro.hashing.mix.fingerprint64` does for wide IBLT keys)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, person=person).digest(), "big"
    )


@dataclass(frozen=True)
class KVRecord:
    """One versioned write: a ``(key, version, writer, value)`` tuple.

    ``value is None`` marks a tombstone (the key was deleted at this
    version); tombstones are first-class records so deletions propagate
    through gossip like any other write.
    """

    key: str
    version: int
    writer: int
    value: str | None

    def __post_init__(self) -> None:
        if not self.key:
            raise ParameterError("record key must be non-empty")
        if len(self.key.encode("utf-8")) >= 1 << KEY_LENGTH_BITS:
            raise ParameterError("record key exceeds the wire length field")
        if not 1 <= self.version < 1 << VERSION_BITS:
            raise ParameterError("record version must fit in 64 bits and be >= 1")
        if not 0 <= self.writer < 1 << WRITER_BITS:
            raise ParameterError("record writer id must fit in 32 bits")
        if (
            self.value is not None
            and len(self.value.encode("utf-8")) >= 1 << VALUE_LENGTH_BITS
        ):
            raise ParameterError("record value exceeds the wire length field")

    @property
    def tombstone(self) -> bool:
        return self.value is None

    def lww_rank(self) -> tuple[int, int, int, str]:
        """The last-writer-wins total order.

        Version first (Lamport clock), writer id as the deterministic
        tie-break between concurrent writers, then value content so the
        order is total even for byzantine duplicates.
        """
        if self.value is None:
            return (self.version, self.writer, 0, "")
        return (self.version, self.writer, 1, self.value)

    def wins_over(self, other: "KVRecord | None") -> bool:
        """Whether this record supersedes ``other`` under LWW merge."""
        return other is None or self.lww_rank() > other.lww_rank()

    # -- persistence (journal lines, control frames) ---------------------------------

    def to_wire(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "version": self.version,
            "writer": self.writer,
            "value": self.value,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "KVRecord":
        """The record a :meth:`to_wire` dict describes; a field of the wrong
        type raises ``ValueError`` instead of being coerced."""
        key, version, writer, value = (wire[name] for name in ("key", "version", "writer", "value"))
        if not (
            isinstance(key, str)
            and all(type(number) is int for number in (version, writer))
            and (value is None or isinstance(value, str))
        ):
            raise ValueError(f"record fields have the wrong types: {wire!r}")
        return cls(key=key, version=version, writer=writer, value=value)


@lru_cache(maxsize=64)
def _chain_start(seed: int) -> int:
    """First word of every fingerprint chain under ``seed``: one BLAKE2b
    derivation per seed per process instead of one per record."""
    return mix64(derive_seed(seed, "kv-record") & MASK64)


def record_fingerprint(seed: int, record: KVRecord) -> int:
    """The 64-bit set element a record contributes, shared public-coin style.

    Chained splitmix64 over the record fields: both parties derive the same
    element from the same ``seed`` without communicating, and any field
    change moves the record to an (overwhelmingly likely) fresh element.
    """
    h = _chain_start(seed)
    h = mix64(h ^ _text_hash64(record.key.encode("utf-8"), person=b"repro-kv-key"))
    h = mix64(h ^ (record.version & MASK64))
    h = mix64(h ^ record.writer)
    if record.value is None:
        h = mix64(h ^ _TOMBSTONE_SALT)
    else:
        h = mix64(
            h ^ _text_hash64(record.value.encode("utf-8"), person=b"repro-kv-val")
        )
    return h


# -- bit-exact wire encoding ----------------------------------------------------------


def record_bits(record: KVRecord) -> int:
    """Exact encoded size of one record (the charged wire cost)."""
    bits = (
        KEY_LENGTH_BITS
        + 8 * len(record.key.encode("utf-8"))
        + VERSION_BITS
        + WRITER_BITS
        + TOMBSTONE_BITS
    )
    if record.value is not None:
        bits += VALUE_LENGTH_BITS + 8 * len(record.value.encode("utf-8"))
    return bits


def _write_text(writer: BitWriter, text: str, length_bits: int) -> None:
    """A length-prefixed UTF-8 string as one ``8 * len``-bit field: the
    stream is MSB-first, so these are the bytes in order."""
    data = text.encode("utf-8")
    writer.write(len(data), length_bits)
    writer.write(int.from_bytes(data, "big"), 8 * len(data))


def _read_text(reader: BitReader, length_bits: int) -> str:
    length = reader.read(length_bits)
    # The one read raises on a length past the stream, before any allocation.
    data = reader.read(8 * length).to_bytes(length, "big")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"record string is not valid UTF-8: {exc}") from exc


def write_record(writer: BitWriter, record: KVRecord) -> None:
    _write_text(writer, record.key, KEY_LENGTH_BITS)
    writer.write(record.version, VERSION_BITS)
    writer.write(record.writer, WRITER_BITS)
    writer.write(1 if record.value is None else 0, TOMBSTONE_BITS)
    if record.value is not None:
        _write_text(writer, record.value, VALUE_LENGTH_BITS)


def read_record(reader: BitReader) -> KVRecord:
    key = _read_text(reader, KEY_LENGTH_BITS)
    version = reader.read(VERSION_BITS)
    writer_id = reader.read(WRITER_BITS)
    tombstone = reader.read(TOMBSTONE_BITS)
    value = None if tombstone else _read_text(reader, VALUE_LENGTH_BITS)
    return KVRecord(key=key, version=version, writer=writer_id, value=value)


def records_bits(records: Sequence[KVRecord]) -> int:
    """Exact size of a counted record list frame."""
    return COUNT_BITS + sum(record_bits(record) for record in records)


def state_digest(records: Iterable[KVRecord]) -> str:
    """Canonical digest of a full replica state (order-independent input).

    Two replicas are converged exactly when their digests agree: the digest
    folds every record field in sorted-key order, so byte-identical state
    is both necessary and sufficient.
    """
    hasher = hashlib.blake2b(digest_size=16, person=b"repro-kv-state")
    for record in sorted(records, key=lambda item: item.key):
        for field in (record.key, str(record.version), str(record.writer)):
            encoded = field.encode("utf-8")
            hasher.update(len(encoded).to_bytes(4, "big"))
            hasher.update(encoded)
        if record.value is None:
            hasher.update(b"\x00")
        else:
            encoded = record.value.encode("utf-8")
            hasher.update(b"\x01" + len(encoded).to_bytes(4, "big"))
            hasher.update(encoded)
    return hasher.hexdigest()
