"""Checksums for IBLT cells and the library's one order-independent set fold.

The IBLT of Section 2 stores, per cell, the XOR of a *checksum* of every key
hashed there.  The checksum must be wide enough that distinct keys do not
collide with high probability; the paper uses Theta(log u) bits.  The same
primitive is the whole-set hash protocols attach to guard against undetected
checksum failures ("we often ward against checksum failures by augmenting the
set recovery process with a hash of each of the sets"): :meth:`Checksum.of_set`
XORs the checksums of a set's elements, and :meth:`Checksum.of_sets` does the
same for many sets in one segmented pass.  Every whole-set, parent-set and
child-set hash in the library is built on these two folds.  The fold is
*linear* -- ``H(S ^ D) == H(S) ^ H(D)`` -- which is what lets the sketch store
keep a running whole-set hash in O(d) per mutation.

Checksums are derived from the shared 64-bit mixing core
(:mod:`repro.hashing.mix`), so they come in matched scalar and array forms:
:meth:`Checksum.of_key` for one key and :meth:`Checksum.of_keys_array` for a
NumPy ``uint64`` array, which agree bit for bit.  The folds pick between the
two routes from what they can see (every key below ``2**64``, a checksum of
at most 64 bits, enough keys to repay the array set-up) and return identical
values on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Collection, Iterable, Sequence

import numpy as _np

from repro.hashing.mix import (
    MASK64,
    checked_keys,
    fingerprint64,
    is_key_array,
    mix64,
    mix64_array,
)
from repro.hashing.prf import derive_seed

#: Up to this many keys the scalar fold beats the array set-up (measured
#: crossover: ~1 us per key against ~12 us fixed).
_BATCH_CUTOFF = 16


@dataclass(frozen=True)
class Checksum:
    """A seeded fixed-width checksum function for integer keys.

    Parameters
    ----------
    seed:
        Shared seed.
    bits:
        Checksum width; 32 bits is the library default, which keeps the
        per-cell overhead modest while making collisions among the handful of
        keys in any one reconciliation negligible.
    """

    seed: int
    bits: int = 32

    @cached_property
    def _word_seeds(self) -> tuple[int, ...]:
        """One derived 64-bit seed per output word (usually just one)."""
        num_words = max(1, (self.bits + 63) // 64)
        return tuple(
            derive_seed(self.seed, "checksum", index) & MASK64
            for index in range(num_words)
        )

    @cached_property
    def _mask(self) -> int:
        return (1 << self.bits) - 1

    def of_key(self, key: int) -> int:
        """Checksum of a single key."""
        fingerprint = fingerprint64(key)
        if self.bits <= 64:
            return mix64(fingerprint ^ self._word_seeds[0]) & self._mask
        combined = 0
        for word_seed in self._word_seeds:
            combined = (combined << 64) | mix64(fingerprint ^ word_seed)
        return combined & self._mask

    def of_set(self, values: Iterable[int]) -> int:
        """Order-independent checksum of a collection of keys (XOR-combined).

        The empty set hashes to 0; keys of ``2**64`` and above are folded
        through :func:`~repro.hashing.mix.fingerprint64` as IBLT keys are.
        A ``uint64`` array is valid by its dtype and is not checked again.
        """
        return self.of_checked(checked_keys(values, array_above=_BATCH_CUTOFF))

    def of_checked(self, keys: Collection[int] | Any) -> int:
        """:meth:`of_set` of keys validated already: what
        :func:`~repro.hashing.mix.checked_keys` returned."""
        checks = self._checks_array(keys)
        if checks is not None:
            return int(_np.bitwise_xor.reduce(checks))
        return self._fold(keys)

    def of_sets(self, sets: Sequence[Collection[int]]) -> list[int]:
        """:meth:`of_set` of each set, in order (one flat pass over all of them)."""
        checks = self._checks_array(
            checked_keys(chain.from_iterable(sets), array_above=_BATCH_CUTOFF)
        )
        if checks is None:
            return [self._fold(members) for members in sets]
        sizes = _np.fromiter(map(len, sets), dtype=_np.int64, count=len(sets))
        # reduceat answers an empty segment with the *next* segment's first
        # element, so fold the non-empty ones only (their starts still
        # partition the flat array) and leave the empty sets at 0.
        occupied = _np.flatnonzero(sizes)
        folds = _np.zeros(len(sets), dtype=_np.uint64)
        folds[occupied] = _np.bitwise_xor.reduceat(
            checks, (_np.cumsum(sizes) - sizes)[occupied]
        )
        return folds.tolist()

    def _fold(self, keys: Iterable[int] | Any) -> int:
        """Scalar route of the folds (validated keys, any width)."""
        combined = 0
        for key in keys.tolist() if is_key_array(keys) else keys:
            combined ^= self.of_key(key)
        return combined

    def _checks_array(self, keys: Collection[int] | Any) -> Any:
        """Per-key checksums of a ``uint64`` key array, or ``None`` when the
        scalar route applies (a list, a checksum past 64 bits)."""
        if is_key_array(keys) and self.bits <= 64:
            return self.of_keys_array(keys)
        return None

    @cached_property
    def _np_seed(self):
        return _np.uint64(self._word_seeds[0])

    @cached_property
    def _np_mask(self):
        return _np.uint64(self._mask if self.bits <= 64 else MASK64)

    def of_keys_array(self, keys) -> "_np.ndarray":
        """Vectorized checksums of a ``uint64`` key array.

        Only defined for ``bits <= 64`` (every IBLT checksum is); agrees
        element-wise with :meth:`of_key`.
        """
        if self.bits > 64:
            raise ValueError("of_keys_array requires bits <= 64")
        return mix64_array(keys ^ self._np_seed) & self._np_mask
