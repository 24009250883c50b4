"""The paper's improved set-difference estimator (Theorem 3.1 / Appendix A).

The construction follows Appendix A: the universe is sampled at geometric
rates into ``O(log n)`` levels; each level keeps a constant number of tiny
counters (2-bit, i.e. mod-4) indexed by a hash of the element.  An element
of ``S1`` adds +1 to its bucket, an element of ``S2`` adds -1, so identical
elements on the two sides cancel exactly and only the symmetric difference
contributes.  A level whose number of non-zero buckets is small counts its
sampled difference (almost) exactly; the query scales the count of the
sparsest reliable level by its sampling rate.

Compared with the strata estimator of reference [14] this sketch stores 2-bit
counters instead of full IBLT cells, which is exactly the ``O(log u)``-factor
saving the paper claims.  Two things of Appendix A are not reproduced.  Its
bucket hashes are pairwise independent; here every hash is the library's one
64-bit mixer (:mod:`repro.hashing.mix`): an element's *level hash* is
``mix64(key ^ level_seed)`` (its trailing zeros pick the deepest level it is
sampled into) and its bucket at a level is
``mix64(level_hash ^ bucket_seed[level]) % buckets_per_level`` -- a cheap,
well-mixed hash is all a bucket-occupancy count needs.  And its word-RAM
tricks (the whole sketch in O(1) machine words) become one array pass per
:meth:`L0Estimator.update_all`: each element's deepest level is computed
once, the element is expanded to its (level, bucket) pairs -- about two per
element, since level ``i`` holds ``2^-i`` of them -- and one mix and one
``bincount`` update every counter.  This changes constants, not sizes.

On the wire only the counters that carry information travel.  Level ``i``
holds about ``n / 2^i`` of a party's ``n`` elements, so past level
``log2 n`` the levels are empty and just before it they are sparse.  The
frame (:meth:`L0Estimator.write_wire`) is a ``bits_for_value(num_levels)``
header with the number of levels sent -- every level after the deepest one
holding a non-zero counter is dropped -- and then, per sent level, one flag
bit and the shorter of two encodings: *dense*, every counter as a 2-bit
field, or *sparse*, a ``bits_for_value(buckets_per_level)`` count followed by
an ``(index, value)`` pair per non-zero counter in increasing index order
(sparse only when strictly shorter).  The frame is canonical: the reader
refuses any other encoding of the same counters.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as _np

from repro.comm.sizing import bits_for_value
from repro.errors import ParameterError
from repro.hashing import derive_seed
from repro.hashing.mix import (
    MASK64,
    checked_keys,
    fingerprint64,
    is_key_array,
    mix64,
    mix64_inplace,
)

#: Up to this many elements the scalar route beats the array set-up
#: (measured, NumPy 2.4: ~2.4 us per element against ~33 us per array pass).
_BATCH_CUTOFF = 16

#: A hex digit of a dense level's field is two counters (as characters 0..3).
_HEX_TO_COUNTERS = {ord(f"{value:x}"): chr(value >> 2) + chr(value & 3) for value in range(16)}

#: Maps a counter byte to 1 when it is non-zero: the frame's levels and a
#: sparse level's buckets are then found by ``rfind`` / ``count`` / ``find``.
_OCCUPIED = bytes([0] + [1] * 255)


def sampled_level(level_hash: int, num_levels: int) -> int:
    """Deepest of ``num_levels`` geometric levels a 64-bit hash is sampled into.

    The number of trailing zeros of a uniform word is geometric with ratio 1/2.
    """
    if level_hash == 0:
        return num_levels - 1
    return min((level_hash & -level_hash).bit_length() - 1, num_levels - 1)


class L0Estimator:
    """L0-sketch set-difference estimator with nested geometric sampling.

    Parameters
    ----------
    seed:
        Shared seed.
    num_levels:
        Number of sampling levels.  Level ``i`` sees each differing element
        with probability ``2^{-i}`` (level 0 sees everything), so
        ``num_levels = 32`` handles differences up to billions.
    buckets_per_level:
        Number of mod-4 counters per level.  Larger values give better
        accuracy; the default of 128 keeps the sketch at 1 KiB in memory (a
        one-sided frame of 4,096 elements is about 300 bytes) while
        estimating within a small constant factor.
    reliable_fraction:
        A level is trusted when its non-zero bucket count is at most
        ``reliable_fraction * buckets_per_level`` (collisions are then rare).
    """

    def __init__(
        self,
        seed: int,
        num_levels: int = 32,
        buckets_per_level: int = 128,
        reliable_fraction: float = 0.25,
    ) -> None:
        if num_levels <= 0:
            raise ParameterError("num_levels must be positive")
        if buckets_per_level < 8:
            raise ParameterError("buckets_per_level must be at least 8")
        if not 0.0 < reliable_fraction < 1.0:
            raise ParameterError("reliable_fraction must be in (0, 1)")
        self.seed = seed
        self.num_levels = num_levels
        self.buckets_per_level = buckets_per_level
        self.reliable_fraction = reliable_fraction
        self._level_seed = derive_seed(seed, "l0-level") & MASK64
        bucket_root = derive_seed(seed, "l0-bucket")
        self._bucket_seeds = [mix64(bucket_root + level) for level in range(num_levels)]
        #: One counter per byte, level-major; the array route works on a
        #: ``(num_levels, buckets_per_level)`` ``uint8`` view of this memory.
        self._counters = bytearray(num_levels * buckets_per_level)
        # Frame widths: the level-count header, a sparse level's count and
        # one (index, value) entry, and the most entries a sparse level can
        # hold while it is still strictly shorter than the dense 2 bits each.
        self._header_bits = bits_for_value(num_levels)
        self._count_bits = bits_for_value(buckets_per_level)
        self._entry_bits = bits_for_value(buckets_per_level - 1) + 2
        self._sparse_limit = (
            2 * buckets_per_level - self._count_bits - 1
        ) // self._entry_bits

    # -- the Section 3 interface: update, merge, query ---------------------------------

    def update(self, element: int, side: int) -> None:
        """Add ``element`` to set ``S1`` (side=1) or ``S2`` (side=2)."""
        self.update_all((element,), side)

    def update_all(self, elements: Iterable[int], side: int) -> None:
        """Add every element to ``side``: one array pass, or -- for a small
        batch, or with a key of ``2**64`` and above (folded as IBLT keys
        are) -- the scalar loop, which leaves identical counters.  A
        ``uint64`` array is valid by its dtype and is not checked again."""
        if side not in (1, 2):
            raise ParameterError(f"side must be 1 or 2, got {side}")
        delta = 1 if side == 1 else 3  # -1 mod 4
        keys = checked_keys(elements, array_above=_BATCH_CUTOFF)
        if is_key_array(keys):
            self._add_array(keys, delta)
            return
        for key in keys:
            self._add_one(key, delta)

    def _add_one(self, key: int, delta: int) -> None:
        counters = self._counters
        level_hash = mix64(fingerprint64(key) ^ self._level_seed)
        deepest = sampled_level(level_hash, self.num_levels)
        for level, bucket_seed in enumerate(self._bucket_seeds[: deepest + 1]):
            index = level * self.buckets_per_level + (
                mix64(level_hash ^ bucket_seed) % self.buckets_per_level
            )
            counters[index] = (counters[index] + delta) & 3

    def _add_array(self, keys: Any, delta: int) -> None:
        # One pass: each key's deepest level once (the trailing zeros of its
        # level hash, capped; a zero hash goes to the top), then one mix and
        # one bincount over its (level, bucket) pairs -- about 2 per key.
        top = self.num_levels - 1
        hashes = mix64_inplace(keys ^ _np.uint64(self._level_seed))
        lowest_bit = hashes & (~hashes + _np.uint64(1))
        # frexp(2**t) has exponent t + 1; a zero hash has no set bit and 0.
        exponents = _np.frexp(lowest_bit.astype(_np.float64))[1]
        levels_per_key = _np.minimum(exponents, top + 1).astype(_np.intp)
        levels_per_key[exponents == 0] = top + 1
        pairs = int(levels_per_key.sum())
        starts = _np.cumsum(levels_per_key) - levels_per_key
        levels = _np.arange(pairs) - _np.repeat(starts, levels_per_key)
        bucket_seeds = _np.array(self._bucket_seeds, dtype=_np.uint64)
        buckets = mix64_inplace(
            _np.repeat(hashes, levels_per_key) ^ bucket_seeds[levels]
        ) % _np.uint64(self.buckets_per_level)
        hits = _np.bincount(levels * self.buckets_per_level + buckets.astype(_np.intp))
        # Only the levels some key reached; uint8 wraps mod 256, a multiple of 4.
        counters = _np.frombuffer(self._counters, dtype=_np.uint8)[: hits.size]
        counters += (delta * hits).astype(_np.uint8)
        counters &= 3

    def merge(self, other: "L0Estimator") -> "L0Estimator":
        """A new estimator of the union of both sketches' updates."""
        if (
            not isinstance(other, L0Estimator)
            or self.seed != other.seed
            or self.num_levels != other.num_levels
            or self.buckets_per_level != other.buckets_per_level
        ):
            raise ParameterError("cannot combine L0 estimators with different parameters")
        merged = L0Estimator(
            self.seed, self.num_levels, self.buckets_per_level, self.reliable_fraction
        )
        # Counter-wise sum mod 4 as one wide addition: a byte holds at most
        # 3 + 3, so nothing carries into its neighbour.
        size = len(self._counters)
        total = int.from_bytes(self._counters, "big") + int.from_bytes(other._counters, "big")
        merged._counters[:] = (total & int.from_bytes(b"\x03" * size, "big")).to_bytes(size, "big")
        return merged

    def _nonzero_count(self, level: int) -> int:
        start = level * self.buckets_per_level
        return self.buckets_per_level - self._counters.count(
            0, start, start + self.buckets_per_level
        )

    def query(self) -> int:
        """An estimate of ``|S1 xor S2|``."""
        threshold = int(self.reliable_fraction * self.buckets_per_level)
        for level in range(self.num_levels):
            count = self._nonzero_count(level)
            if count <= threshold:
                if level == 0:
                    return count
                return max(1, count) << level
        # Every level is saturated -- the difference is astronomically large;
        # report the most pessimistic scaled estimate.
        deepest = self.num_levels - 1
        return max(1, self._nonzero_count(deepest)) << deepest

    # -- the compact wire frame ------------------------------------------------------

    def _occupancy(self) -> tuple[bytes, list[int]]:
        """The counters as 0/1 occupancy bytes, and the non-zero count of each
        level the frame carries: every level up to the deepest one holding a
        non-zero counter."""
        width = self.buckets_per_level
        occupied = self._counters.translate(_OCCUPIED)
        sent = occupied.rfind(1) // width + 1  # 0 when every counter is zero
        return occupied, [
            occupied.count(1, start, start + width) for start in range(0, sent * width, width)
        ]

    def _level_bits(self, nonzero: int) -> int:
        """A sent level's flag bit plus its shorter encoding."""
        if nonzero <= self._sparse_limit:
            return 1 + self._count_bits + nonzero * self._entry_bits
        return 1 + 2 * self.buckets_per_level

    @property
    def size_bits(self) -> int:
        """The exact length of the frame for the current counters."""
        return self._header_bits + sum(map(self._level_bits, self._occupancy()[1]))

    def write_wire(self, writer) -> None:
        """Append exactly :attr:`size_bits` bits to a
        :class:`~repro.comm.bits.BitWriter`: the seed and shape are shared
        knowledge and do not travel."""
        width = self.buckets_per_level
        counters = self._counters
        occupied, occupancy = self._occupancy()
        writer.write(len(occupancy), self._header_bits)
        for start, nonzero in zip(range(0, len(occupancy) * width, width), occupancy):
            end = start + width
            bits = self._level_bits(nonzero)
            if nonzero > self._sparse_limit:
                # Flag 0, then one field whose base-4 digits are the counters,
                # MSB first: exactly a 2-bit field per counter.
                writer.write(int(counters[start:end].hex()[1::2], 4), bits)
                continue
            field = (1 << self._count_bits) | nonzero  # flag 1, then the count
            index = occupied.find(1, start, end)
            while index >= 0:
                field = (field << self._entry_bits) | ((index - start) << 2) | counters[index]
                index = occupied.find(1, index + 1, end)
            writer.write(field, bits)

    def read_wire(self, reader) -> None:
        """Fill the counters from a frame; anything but the canonical frame of
        some counters raises :class:`~repro.errors.ParameterError` (a codec
        turns it into a ``WireError``) before more than the frame is read."""
        width = self.buckets_per_level
        sent = reader.read(self._header_bits)
        if sent > self.num_levels:
            raise ParameterError(f"L0 frame sends {sent} of {self.num_levels} levels")
        counters = bytearray(len(self._counters))
        index_mask = (1 << (self._entry_bits - 2)) - 1
        for start in range(0, sent * width, width):
            if reader.read(1):
                nonzero = reader.read(self._count_bits)
                if nonzero > self._sparse_limit:
                    raise ParameterError(
                        f"sparse L0 level of {nonzero} counters is not shorter than dense"
                    )
                entries = reader.read(nonzero * self._entry_bits)
                previous = -1
                for shift in range((nonzero - 1) * self._entry_bits, -1, -self._entry_bits):
                    index = (entries >> (shift + 2)) & index_mask
                    value = (entries >> shift) & 3
                    if not previous < index < width or not value:
                        raise ParameterError(
                            f"sparse L0 entry ({index}, {value}) out of order or range"
                        )
                    counters[start + index] = value
                    previous = index
            else:
                digits = f"{reader.read(2 * width):0{(width + 1) // 2}x}"
                counters[start : start + width] = digits.translate(_HEX_TO_COUNTERS)[
                    -width:
                ].encode("latin-1")
                nonzero = width - counters.count(0, start, start + width)
                if nonzero <= self._sparse_limit:
                    raise ParameterError(
                        f"dense L0 level of {nonzero} non-zero counters has a shorter sparse form"
                    )
        if sent and not any(counters[(sent - 1) * width : sent * width]):
            raise ParameterError("the last level of an L0 frame is all zero")
        self._counters[:] = counters
