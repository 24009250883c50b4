"""The reference cell store: an IBLT's cells over plain Python ints.

A test oracle, never registered and never used by the library.  It keeps the
three per-cell accumulators of Section 2 -- ``count``, ``key_xor`` and
``check_xor`` -- as lists and does everything one key and one cell at a
time, with the library's single-key hashes (``HashFamily.cells_for``,
``Checksum.of_key``) and its own scalar codec.  Tests build the same table
on it and on the library's NumPy store and compare cell snapshots,
per-round peel sets, fold / upper half / unfold and serialized integers.

:func:`new_table` puts a :class:`ReferenceCellStore` under an ordinary
:class:`~repro.iblt.table.IBLT`, so insert, delete, subtract, merge, fold
and decode run the library's table code over the oracle's cells;
:func:`serialize` and :func:`deserialize` are the scalar codec, for a table
on either store.
"""

from __future__ import annotations

from unittest import mock

from repro.errors import CapacityError, ParameterError
from repro.hashing import fingerprint64
from repro.iblt import IBLT, IBLTParameters
from repro.iblt import backends

#: Test ids of the two stores: the oracle's and the library's.
STORES = ("reference", "numpy")


def count_residue(count: int, count_bits: int) -> int:
    """The signed residue of ``count`` modulo ``2**count_bits``."""
    half = 1 << (count_bits - 1)
    return ((count + half) & ((half << 1) - 1)) - half


def _validate(key: int, key_bits: int) -> None:
    if not isinstance(key, int):
        raise ParameterError("IBLT keys must be Python integers")
    if key < 0:
        raise ParameterError("IBLT keys must be non-negative")
    if key.bit_length() > key_bits:
        raise CapacityError(f"key of {key.bit_length()} bits exceeds key_bits={key_bits}")


class ReferenceCellStore:
    """The per-cell triples as three lists of exact ints (any key width)."""

    name = "reference"

    def __init__(self, num_cells: int, count_bits: int, key_bits: int) -> None:
        self.num_cells = num_cells
        self.count_bits = count_bits
        self.key_bits = key_bits
        self._counts = [0] * num_cells
        self._key_xor = [0] * num_cells
        self._check_xor = [0] * num_cells
        #: Per peel round, the keys removed with count +1 and with -1.
        self.rounds: list[tuple[frozenset[int], frozenset[int]]] = []

    def _with_cells(self, counts, key_xor, check_xor) -> "ReferenceCellStore":
        store = ReferenceCellStore(len(counts), self.count_bits, self.key_bits)
        store._counts, store._key_xor, store._check_xor = counts, key_xor, check_xor
        return store

    # -- mutation ----------------------------------------------------------------------

    def apply(self, cells, key, check, delta):
        for cell in cells:
            self._counts[cell] += delta
            self._key_xor[cell] ^= key
            self._check_xor[cell] ^= check

    def prepare_keys(self, keys, key_bits):
        keys = keys.tolist() if hasattr(keys, "tolist") else list(keys)
        for key in keys:
            _validate(key, key_bits)
        return keys

    def apply_batch(self, keys, deltas, family, checksum):
        if isinstance(deltas, int):
            deltas = [deltas] * len(keys)
        for key, delta in zip(keys, deltas):
            # Hash the key's 64-bit fold (one digest for a wide key): below
            # 2**64 the fold is the identity, so the cells are the key's own.
            fold = fingerprint64(key)
            self.apply(family.cells_for(fold), key, checksum.of_key(fold), delta)

    def combine(self, other, sign):
        """``self += sign * other``; ``other`` may be on either store."""
        other_counts, other_keys, other_checks = other.snapshot()
        for cell in range(self.num_cells):
            self._counts[cell] += sign * other_counts[cell]
            self._key_xor[cell] ^= other_keys[cell]
            self._check_xor[cell] ^= other_checks[cell]

    # -- peeling -----------------------------------------------------------------------

    def pure_cells(self, checksum):
        """``(keys, signs)`` of every pure cell, in ascending cell order."""
        keys, signs = [], []
        for cell, count in enumerate(self._counts):
            count = count_residue(count, self.count_bits)
            key = self._key_xor[cell]
            if count in (1, -1) and self._check_xor[cell] == checksum.of_key(key):
                keys.append(key)
                signs.append(count)
        return keys, signs

    def peel_rounds(self, checksum, family):
        """Peel round by round: every pure cell found in one scan, each key
        chosen once (its first cell wins), all chosen keys removed at once;
        at most ``backends.max_peel_rounds`` rounds."""
        positive, negative = [], []
        for _ in range(backends.max_peel_rounds(self.num_cells)):
            keys, signs = self.pure_cells(checksum)
            if not keys:
                break
            chosen: dict[int, int] = {}
            for key, sign in zip(keys, signs):
                chosen.setdefault(key, sign)
            for key, sign in chosen.items():
                (positive if sign == 1 else negative).append(key)
            self.rounds.append(
                (
                    frozenset(key for key, sign in chosen.items() if sign == 1),
                    frozenset(key for key, sign in chosen.items() if sign == -1),
                )
            )
            self.apply_batch(list(chosen), [-sign for sign in chosen.values()], family, checksum)
        return positive, negative

    # -- folding -----------------------------------------------------------------------

    def folded(self, regions, num_cells):
        size, target = self.num_cells // regions, num_cells // regions
        counts, key_xor, check_xor = [0] * num_cells, [0] * num_cells, [0] * num_cells
        for cell in range(self.num_cells):
            region, offset = divmod(cell, size)
            into = region * target + offset % target
            counts[into] += self._counts[cell]
            key_xor[into] ^= self._key_xor[cell]
            check_xor[into] ^= self._check_xor[cell]
        return self._with_cells(counts, key_xor, check_xor)

    def upper_half(self, regions):
        size = self.num_cells // regions
        half = size // 2
        cells = [
            start + offset for start in range(half, self.num_cells, size) for offset in range(half)
        ]
        return self._with_cells(
            [self._counts[cell] for cell in cells],
            [self._key_xor[cell] for cell in cells],
            [self._check_xor[cell] for cell in cells],
        )

    def unfolded(self, upper, regions):
        upper_counts, upper_keys, upper_checks = upper._counts, upper._key_xor, upper._check_xor
        size = self.num_cells // regions
        counts, key_xor, check_xor = [], [], []
        for start in range(0, self.num_cells, size):
            span = slice(start, start + size)
            counts += [a - b for a, b in zip(self._counts[span], upper_counts[span])]
            counts += upper_counts[span]
            key_xor += [a ^ b for a, b in zip(self._key_xor[span], upper_keys[span])]
            key_xor += upper_keys[span]
            check_xor += [a ^ b for a, b in zip(self._check_xor[span], upper_checks[span])]
            check_xor += upper_checks[span]
        return self._with_cells(counts, key_xor, check_xor)

    # -- inspection --------------------------------------------------------------------

    def is_empty(self):
        return not any(count_residue(count, self.count_bits) for count in self._counts) and not (
            any(self._key_xor) or any(self._check_xor)
        )

    def snapshot(self):
        counts = [count_residue(count, self.count_bits) for count in self._counts]
        return counts, list(self._key_xor), list(self._check_xor)

    def load(self, counts, key_xors, check_xors):
        self._counts = list(counts)
        self._key_xor = list(key_xors)
        self._check_xor = list(check_xors)

    def copy(self):
        return self._with_cells(list(self._counts), list(self._key_xor), list(self._check_xor))


# -- tables ------------------------------------------------------------------------------


def new_table(params: IBLTParameters, store: str = "reference") -> IBLT:
    """An empty table on ``store`` (one of :data:`STORES`)."""
    table = IBLT(params)
    if store == "reference":
        table._store = ReferenceCellStore(params.num_cells, params.count_bits, params.key_bits)
    elif store != "numpy":
        raise ValueError(f"unknown store {store!r}")
    return table


def table_of(params: IBLTParameters, keys, store: str = "reference") -> IBLT:
    """A table on ``store`` with every key of ``keys`` inserted."""
    table = new_table(params, store)
    table.insert_batch(keys)
    return table


def peel_by_round(table: IBLT) -> list[tuple[frozenset[int], frozenset[int]]]:
    """The keys ``table`` peels in each round, as :attr:`ReferenceCellStore.rounds`
    records them, for a table on either store: a NumPy table is peeled once
    per round count, capped at 1, 2, ... rounds, and each cap's haul less
    the previous one's is that round's."""
    if isinstance(table._store, ReferenceCellStore):
        work = table.copy()
        work._store.peel_rounds(work._checksum, work._family)
        return work._store.rounds
    rounds: list[tuple[frozenset[int], frozenset[int]]] = []
    before: tuple[set[int], set[int]] = (set(), set())
    cap = 1
    while cap <= backends.max_peel_rounds(table.params.num_cells):
        with mock.patch.object(backends, "max_peel_rounds", lambda num_cells, cap=cap: cap):
            result = table.try_decode()
        if (result.positive, result.negative) == before:
            break
        rounds.append(
            (frozenset(result.positive - before[0]), frozenset(result.negative - before[1]))
        )
        before = (result.positive, result.negative)
        cap += 1
    return rounds


# -- the scalar codec ----------------------------------------------------------------


def fold_cells(params, counts, key_xors, check_xors) -> int:
    """The canonical integer of cells given as ints, cell 0 most significant,
    each as ``count mod 2**count_bits || key_xor || check_xor``."""
    encoded = 0
    for count, key_xor, check_xor in zip(counts, key_xors, check_xors):
        encoded = (encoded << params.count_bits) | (count % (1 << params.count_bits))
        encoded = (encoded << params.key_bits) | key_xor
        encoded = (encoded << params.checksum_bits) | check_xor
    return encoded


def split_cells(params, encoded: int) -> tuple[list[int], list[int], list[int]]:
    """Inverse of :func:`fold_cells`: ``(counts, key_xors, check_xors)``,
    every count as its signed residue."""
    counts, key_xors, check_xors = [], [], []
    for cell in reversed(range(params.num_cells)):
        packed = encoded >> (cell * params.cell_bits)
        check_xors.append(packed & ((1 << params.checksum_bits) - 1))
        packed >>= params.checksum_bits
        key_xors.append(packed & ((1 << params.key_bits) - 1))
        packed >>= params.key_bits
        counts.append(count_residue(packed & ((1 << params.count_bits) - 1), params.count_bits))
    return counts, key_xors, check_xors


def serialize(table: IBLT) -> int:
    """:meth:`IBLT.serialize` by the scalar codec, for a table on either store."""
    return fold_cells(table.params, *table._store.snapshot())


def deserialize(params: IBLTParameters, encoded: int) -> IBLT:
    """:meth:`IBLT.deserialize` onto the reference store."""
    if encoded < 0 or encoded.bit_length() > params.size_bits:
        raise ParameterError("encoded value does not match the parameters")
    table = new_table(params)
    table._store.load(*split_cells(params, encoded))
    return table
