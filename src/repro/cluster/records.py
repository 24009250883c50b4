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

:func:`record_fingerprints` is :func:`record_fingerprint` over a batch: one
BLAKE2b digest per key and per value, then the mixing chain as whole-array
operations past a small batch.  :func:`record_state_bytes` is one
record's share of :func:`state_digest`, so a replica that keeps those bytes
per installed record digests its state with one join and one hash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Any, Collection, Iterable, Sequence

import numpy as _np

from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError
from repro.hashing import derive_seed
from repro.hashing.mix import MASK64, mix64, mix64_array
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
#: The fixed-width fields after the key: version, writer, tombstone flag.
_FIXED_BITS = VERSION_BITS + WRITER_BITS + TOMBSTONE_BITS

#: Mixed into tombstone fingerprints in place of a value hash, so deleting
#: a key maps to a different element than any live value for it.
_TOMBSTONE_WORD = b"tombston"  # the word 0x746F6D6273746F6E

#: Up to this many records the scalar chain beats the array set-up.
_BATCH_CUTOFF = 8


#: Keyed BLAKE2b states the key and value hashes are copied from (a copy
#: is cheaper than a keyed constructor).
_KEY_HASHER = hashlib.blake2b(digest_size=8, person=b"repro-kv-key")
_VALUE_HASHER = hashlib.blake2b(digest_size=8, person=b"repro-kv-val")


def _text_digest(text: str, base: Any) -> bytes:
    """A string folded to one big-endian 64-bit word (keyed BLAKE2b, like
    :func:`~repro.hashing.mix.fingerprint64` does for wide IBLT keys)."""
    hasher = base.copy()
    hasher.update(text.encode("utf-8"))
    digest: bytes = hasher.digest()
    return digest


def _value_digest(value: str | None) -> bytes:
    return _TOMBSTONE_WORD if value is None else _text_digest(value, _VALUE_HASHER)


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
    h = mix64(h ^ int.from_bytes(_text_digest(record.key, _KEY_HASHER), "big"))
    h = mix64(h ^ (record.version & MASK64))
    h = mix64(h ^ record.writer)
    return mix64(h ^ int.from_bytes(_value_digest(record.value), "big"))


def _words(digests: list[bytes]) -> Any:
    """Eight-byte big-endian digests as one ``uint64`` array."""
    return _np.frombuffer(b"".join(digests), dtype=">u8").astype(_np.uint64)


def record_fingerprints(seed: int, records: Collection[KVRecord]) -> list[int]:
    """:func:`record_fingerprint` of every record, in order.

    One BLAKE2b digest per key and per value; past ``_BATCH_CUTOFF``
    records the five-step mixing chain then runs once over the whole batch
    instead of once per record.
    """
    if len(records) <= _BATCH_CUTOFF:
        return [record_fingerprint(seed, record) for record in records]
    keys = [_text_digest(record.key, _KEY_HASHER) for record in records]
    values = [_value_digest(record.value) for record in records]
    versions = [record.version for record in records]
    writers = [record.writer for record in records]

    h = mix64_array(_words(keys) ^ _np.uint64(_chain_start(seed)))
    for field in (_np.array(versions, _np.uint64), _np.array(writers, _np.uint64), _words(values)):
        h = mix64_array(h ^ field)
    result: list[int] = h.tolist()
    return result


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
    """A length-prefixed UTF-8 string as one field: the stream is
    MSB-first, so these are the length, then the bytes in order."""
    data = text.encode("utf-8")
    bits = 8 * len(data)
    writer.write((len(data) << bits) | int.from_bytes(data, "big"), length_bits + bits)


def _read_text(reader: BitReader, length_bits: int) -> str:
    length = reader.read(length_bits)
    # The one read raises on a length past the stream, before any allocation.
    return _decode_text(reader.read(8 * length).to_bytes(length, "big"))


def _decode_text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"record string is not valid UTF-8: {exc}") from exc


def write_record(writer: BitWriter, record: KVRecord) -> None:
    """Key length, key, version, writer and tombstone flag as one field,
    then the value (length-prefixed) as another; :class:`KVRecord` has
    checked that every field fits its width."""
    key = record.key.encode("utf-8")
    head = (len(key) << 8 * len(key)) | int.from_bytes(key, "big")
    head = (head << VERSION_BITS) | record.version
    head = (head << WRITER_BITS) | record.writer
    head = (head << TOMBSTONE_BITS) | (record.value is None)
    writer.write(head, KEY_LENGTH_BITS + 8 * len(key) + _FIXED_BITS)
    if record.value is not None:
        _write_text(writer, record.value, VALUE_LENGTH_BITS)


def read_record(reader: BitReader) -> KVRecord:
    length = reader.read(KEY_LENGTH_BITS)
    # The one read raises on a length past the stream, before any allocation.
    rest = reader.read(8 * length + _FIXED_BITS)
    key = _decode_text((rest >> _FIXED_BITS).to_bytes(length, "big"))
    version = (rest >> (WRITER_BITS + TOMBSTONE_BITS)) & ((1 << VERSION_BITS) - 1)
    writer_id = (rest >> TOMBSTONE_BITS) & ((1 << WRITER_BITS) - 1)
    value = None if rest & 1 else _read_text(reader, VALUE_LENGTH_BITS)
    return KVRecord(key=key, version=version, writer=writer_id, value=value)


def records_bits(records: Sequence[KVRecord]) -> int:
    """Exact size of a counted record list frame."""
    return COUNT_BITS + sum(record_bits(record) for record in records)


def record_state_bytes(record: KVRecord) -> bytes:
    """One record's canonical bytes in :func:`state_digest`: key, version
    and writer (decimal) each length-prefixed, then ``0x00`` for a
    tombstone or ``0x01`` and the length-prefixed value."""
    parts: list[bytes] = []
    for field in (record.key, str(record.version), str(record.writer)):
        encoded = field.encode("utf-8")
        parts += (len(encoded).to_bytes(4, "big"), encoded)
    if record.value is None:
        parts.append(b"\x00")
    else:
        encoded = record.value.encode("utf-8")
        parts += (b"\x01", len(encoded).to_bytes(4, "big"), encoded)
    return b"".join(parts)


def digest_state_bytes(ordered: Iterable[bytes]) -> str:
    """The digest of a state given its records' :func:`record_state_bytes`
    in sorted-key order: one BLAKE2b over their concatenation, which is
    the same hash as feeding the pieces one at a time."""
    hasher = hashlib.blake2b(digest_size=16, person=b"repro-kv-state")
    hasher.update(b"".join(ordered))
    return hasher.hexdigest()


def state_digest(records: Iterable[KVRecord]) -> str:
    """Canonical digest of a full replica state (order-independent input).

    Two replicas are converged exactly when their digests agree: the digest
    folds every record field in sorted-key order, so byte-identical state
    is both necessary and sufficient.  The reference for
    :meth:`~repro.cluster.replica.VersionedKV.digest`, which keeps each
    record's bytes from install time instead of re-encoding them.
    """
    return digest_state_bytes(
        map(record_state_bytes, sorted(records, key=attrgetter("key")))
    )
