"""Keyed pseudo-random hashing shared between the two parties.

The paper's protocols operate in the public-coin model: Alice and Bob share
all random bits for free.  We realise this by deriving every hash function
from a single integer ``seed`` using keyed BLAKE2b.  The same seed always
yields the same function, across processes and platforms, which is essential
because the two "parties" in our simulations are separate objects that must
agree on every hash without communicating.

BLAKE2b is kept for what needs it: deriving domain-separated seeds
(:func:`derive_seed`) and hashing single values or byte strings
(:class:`SeededHasher`).  Hashing a whole *set* is not one of those jobs:
:meth:`SeededHasher.hash_iterable` is the splitmix64 set fold of
:meth:`repro.hashing.checksum.Checksum.of_set`, not a digest per element.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro.errors import ParameterError

_SEED_BYTES = 16
_MASK64 = (1 << 64) - 1


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Encode a non-negative integer as big-endian bytes.

    When ``length`` is ``None`` the minimal number of bytes is used (at least
    one so that zero has a representation).
    """
    if value < 0:
        raise ValueError("int_to_bytes requires a non-negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode big-endian bytes into a non-negative integer."""
    return int.from_bytes(data, "big")


def derive_seed(seed: int, *labels: object) -> int:
    """Derive a child seed from ``seed`` and a sequence of labels.

    Protocol layers use this to hand independent randomness to sub-components
    (e.g. "the child IBLT hash functions for level 3") while still being fully
    determined by the top-level seed, mirroring the paper's practice of
    sharing a single random seed and expanding it locally.
    """
    hasher = hashlib.blake2b(digest_size=_SEED_BYTES)
    hasher.update(int_to_bytes(seed & _MASK64, 8))
    for label in labels:
        encoded = str(label).encode("utf-8")
        hasher.update(len(encoded).to_bytes(4, "big"))
        hasher.update(encoded)
    return bytes_to_int(hasher.digest())


@dataclass(frozen=True)
class SeededHasher:
    """A deterministic hash function keyed by an integer seed.

    Parameters
    ----------
    seed:
        Shared random seed (public coins).
    out_bits:
        Width of the output in bits.  Outputs are uniform integers in
        ``[0, 2**out_bits)``.
    """

    seed: int
    out_bits: int = 64

    def _digest(self, data: bytes) -> bytes:
        key = int_to_bytes(self.seed & ((1 << 128) - 1), 16)
        digest_size = max(8, (self.out_bits + 7) // 8)
        hasher = hashlib.blake2b(data, key=key, digest_size=min(64, digest_size))
        output = hasher.digest()
        while len(output) * 8 < self.out_bits:
            hasher = hashlib.blake2b(output, key=key, digest_size=64)
            output += hasher.digest()
        return output

    def hash_bytes(self, data: bytes) -> int:
        """Hash a byte string to an integer in ``[0, 2**out_bits)``."""
        return bytes_to_int(self._digest(data)) & ((1 << self.out_bits) - 1)

    def hash_int(self, value: int) -> int:
        """Hash a non-negative integer to an integer in ``[0, 2**out_bits)``."""
        return self.hash_bytes(int_to_bytes(value))

    def hash_to_range(self, value: int, modulus: int) -> int:
        """Hash an integer into ``[0, modulus)``.

        Uses a 128-bit intermediate hash so the modulo bias is negligible for
        the table sizes used in this library.
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        wide = SeededHasher(self.seed, 128).hash_int(value)
        return wide % modulus

    def hash_iterable(self, values: Iterable[int]) -> int:
        """Order-independent hash of an iterable of non-negative integers.

        The set fold of :meth:`repro.hashing.checksum.Checksum.of_set` keyed
        by this hasher's seed (at most 64 bits wide): invariant under
        reordering, and linear under symmetric difference.
        """
        # checksum.py derives its word seeds with this module's derive_seed.
        from repro.hashing.checksum import Checksum

        if self.out_bits > 64:
            raise ParameterError("hash_iterable supports out_bits of at most 64")
        return Checksum(self.seed, self.out_bits).of_set(values)
