"""The IBLT's cell store.

An IBLT is three parallel per-cell accumulators -- ``count``, ``key_xor``
and ``check_xor`` -- plus a scatter pattern derived from the hash family.
:class:`NumpyCellStore` owns those accumulators as NumPy ``int64`` count and
``uint64`` XOR arrays and implements everything that touches them: batch
scatter updates, the whole peeling loop (:meth:`NumpyCellStore.peel_rounds`),
in-place combination, the fold ladder's pieces and snapshot/load.

A key of ``key_bits`` bits is held as ``L = ceil(key_bits / 64)`` ``uint64``
limbs, so ``key_xor`` has shape ``(num_cells, L)`` (flat at ``L = 1``):
tables whose keys are serialized child IBLTs or explicit child sets
(Section 3.2) live here too.  A batch of such keys is a :class:`KeyBatch`
of limbs and folds; the folds are read from the limbs' bytes
(:func:`~repro.hashing.mix.fingerprint64_rows`), whether the batch came as
ints, as a peel round's candidates or already built in limbs by its
encoder, so no wide key becomes an int on its way in.  Batch inserts hash
the keys' 64-bit folds through
:meth:`~repro.hashing.family.HashFamily.cells_and_checks_array` (cells and
checksums from one mix) and write them with :func:`scatter`; the peeler
runs whole rounds (pure-cell scan, checksum verification, per-key dedup,
batch removal) as vector operations.  Checksums and counts are at most 64
bits wide (:class:`~repro.iblt.table.IBLTParameters` refuses wider ones).

Every bucket index and checksum comes from the one 64-bit mixing core
(:mod:`repro.hashing.mix`), so a parameter set and a key sequence fix the
cell contents, and therefore the serialized table and the decode result.
:func:`count_residue` is the one reading of a cell count: the store keeps
exact counts, but a table is only defined modulo ``2**count_bits`` (the
serialized width).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

import numpy as _np

from repro.errors import CapacityError, ParameterError
from repro.hashing import Checksum, HashFamily
from repro.hashing.mix import checked_keys, fingerprint64_rows, is_key_array

#: The names ``backend=`` accepts: the one store's, and ``"auto"``.  The
#: option selects nothing; it stays so that callers naming the store keep
#: working.
BACKEND_NAMES = ("auto", "numpy")


def check_backend(name: str | None) -> None:
    """Refuse a ``backend=`` request the one cell store does not answer to
    (:data:`BACKEND_NAMES`, or ``None``)."""
    if name is not None and name not in BACKEND_NAMES:
        raise ParameterError(f"unknown cell backend {name!r}; accepted: {list(BACKEND_NAMES)}")


def max_peel_rounds(num_cells: int) -> int:
    """The peeling round cap of :meth:`NumpyCellStore.peel_rounds` and of
    the array peel (:mod:`repro.iblt.multi`).

    A successful peel removes at least one key per round and never needs
    more rounds than keys; the cap only guards degenerate adversarial
    states.  Both peelers stop after identical round sequences.
    """
    return 4 * num_cells + 16


def count_residue(count, count_bits: int):
    """The signed residue of ``count`` modulo ``2**count_bits``.

    Lies in ``[-2**(count_bits-1), 2**(count_bits-1))``; works on a Python int
    and elementwise on an ``int64`` array.  A sent table carries only the low
    ``count_bits`` bits of each count, and the receiver subtracts exact counts
    from those, so a difference cell is right only modulo ``2**count_bits``:
    every read of a count (peel scan, emptiness, snapshot) takes this residue.
    Exact counts stay far below ``2**63``, so at 64 bits and over the residue
    is the count itself.
    """
    if count_bits >= 64:
        return count
    half = 1 << (count_bits - 1)
    return ((count + half) & ((half << 1) - 1)) - half


def _validate_key_scalar(key: int, key_bits: int) -> None:
    """Single-key validation (the batch path raises exactly the same)."""
    if not isinstance(key, int):
        raise ParameterError("IBLT keys must be Python integers")
    if key < 0:
        raise ParameterError("IBLT keys must be non-negative")
    if key.bit_length() > key_bits:
        raise CapacityError(
            f"key of {key.bit_length()} bits exceeds key_bits={key_bits}"
        )


class KeyBatch(NamedTuple):
    """A validated key batch as :class:`NumpyCellStore` holds it.

    ``limbs`` holds the keys as :class:`NumpyCellStore` stores them (see
    there); ``folds`` is each key's :func:`~repro.hashing.mix.fingerprint64`,
    the word its cells and checksum are hashed from: ``limbs`` itself at one
    limb per key.
    """

    limbs: Any
    folds: Any


def _limbs_of(keys: Sequence[int], num_limbs: int):
    """The key array of non-negative keys: one word each at one limb, else
    ``(n, num_limbs)`` limbs, most significant first.  ``OverflowError`` when
    a key is wider than the limbs."""
    if num_limbs == 1:
        return _np.asarray(keys, dtype=_np.uint64)
    width = 8 * num_limbs
    data = b"".join([key.to_bytes(width, "big") for key in keys])
    return _np.frombuffer(data, dtype=">u8").astype(_np.uint64).reshape(-1, num_limbs)


def _ints_of(limbs) -> list[int]:
    """The keys a key array holds (one word or one limb row each), as ints."""
    if limbs.ndim == 1:
        return limbs.tolist()
    width = 8 * limbs.shape[1]
    data = limbs.astype(">u8").tobytes()
    return [
        int.from_bytes(data[start : start + width], "big")
        for start in range(0, len(data), width)
    ]


def _folds_of(limbs):
    """:func:`~repro.hashing.mix.fingerprint64` of every key of a key array:
    the array itself at one word per key, else
    :func:`~repro.hashing.mix.fingerprint64_rows` of the limb rows (a row
    that fits in a word is its last limb, any other one BLAKE2b digest of
    its bytes; no row becomes an int)."""
    return limbs if limbs.ndim == 1 else fingerprint64_rows(limbs)


def scatter(arrays, cells, keys, checks, deltas, key_bits: int, checksum_bits: int) -> None:
    """Add a non-empty key batch into flat ``(counts, key_xor, check_xor)``
    ``arrays``, in place: the one scatter of every table build and peel
    removal.

    ``cells`` is the ``(num_hashes, n)`` cell matrix, ``keys`` the words or
    limb rows, ``checks`` their checksums, ``deltas`` one int or one per key.
    The index is flattened hash-major and the values stacked once per hash
    to its shape (broadcasting a 1-D value row over a 2-D index gives wrong
    sums on some NumPy 2 releases).

    ``np.bitwise_xor.at`` costs about 5x ``np.add.at`` per index (it has no
    fast indexed loop).  So when key and checksum fit one word (one limb,
    ``key_bits + checksum_bits <= 64``) and the batch writes at least as
    many cells as the arrays hold, ``key << checksum_bits | check`` is
    XOR-scattered once and split in one pass over the cells, which a
    sparser batch would not repay.  The cells come out the same either way.
    """
    counts, key_xor, check_xor = arrays
    repeats = cells.shape[0]
    cells = cells.reshape(-1)

    def repeated(rows):
        return _np.concatenate([rows] * repeats)

    if isinstance(deltas, int):
        _np.add.at(counts, cells, _np.int64(deltas))
    else:
        _np.add.at(counts, cells, repeated(_np.asarray(deltas, dtype=_np.int64)))
    if key_xor.ndim == 1 and key_bits + checksum_bits <= 64 and cells.size >= counts.size:
        shift = _np.uint64(checksum_bits)
        words = _np.zeros(counts.size, dtype=_np.uint64)
        _np.bitwise_xor.at(words, cells, repeated((keys << shift) | checks))
        key_xor ^= words >> shift
        words &= _np.uint64((1 << checksum_bits) - 1)
        check_xor ^= words
    else:
        _np.bitwise_xor.at(key_xor, cells, repeated(keys))
        _np.bitwise_xor.at(check_xor, cells, repeated(checks))


class NumpyCellStore:
    """The per-cell ``(count, key_xor, check_xor)`` triples as NumPy arrays
    (any key width, checksums and counts of at most 64 bits).

    A key takes ``num_limbs = ceil(key_bits / 64)`` ``uint64`` limbs, most
    significant first: ``key_xor`` has shape ``(num_cells, num_limbs)``, and
    at one limb it is the flat ``(num_cells,)`` array of words, so narrow
    tables run exactly the one-word code.  Cells and checksums are hashed
    from each key's 64-bit fold.
    """

    #: Reported by :attr:`repro.iblt.table.IBLT.backend`.
    name = "numpy"

    def __init__(self, num_cells: int, count_bits: int, key_bits: int) -> None:
        self.num_cells = num_cells
        self.count_bits = count_bits
        self.key_bits = key_bits
        self.num_limbs = -(-key_bits // 64)
        self._counts = _np.zeros(num_cells, dtype=_np.int64)
        shape = (num_cells,) if self.num_limbs == 1 else (num_cells, self.num_limbs)
        self._key_xor = _np.zeros(shape, dtype=_np.uint64)
        self._check_xor = _np.zeros(num_cells, dtype=_np.uint64)

    def apply(self, cells: Sequence[int], key: int, check: int, delta: int) -> None:
        """Scatter one key (with its checksum) into its cells with ``delta``."""
        counts, key_xor, check_xor = self._counts, self._key_xor, self._check_xor
        key_limbs = _np.uint64(key) if self.num_limbs == 1 else _limbs_of([key], self.num_limbs)[0]
        check_word = _np.uint64(check)
        for cell in cells:
            counts[cell] += delta
            key_xor[cell] ^= key_limbs
            check_xor[cell] ^= check_word

    def prepare_keys(self, keys, key_bits: int) -> KeyBatch:
        """Validate a key batch and return the :class:`KeyBatch`
        :meth:`apply_batch` takes."""
        # A KeyBatch (what an earlier call returned) cannot hold a float, a
        # negative or an over-long key: only the width is left to check.
        if isinstance(keys, KeyBatch):
            batch = keys
        else:
            batch = self._checked_batch(keys if is_key_array(keys) else list(keys), key_bits)
        top_bits = key_bits - 64 * (self.num_limbs - 1)
        if top_bits < 64 and batch.folds.size:
            top = batch.limbs if self.num_limbs == 1 else batch.limbs[:, 0]
            oversized = top >> _np.uint64(top_bits)
            if oversized.any():
                row = batch.limbs[_np.nonzero(oversized)[0][:1]]
                _validate_key_scalar(_ints_of(row)[0], key_bits)
        return batch

    def _checked_batch(self, keys, key_bits):
        # Types are checked before NumPy sees a key (it would truncate a
        # float), signs on the list path a negative key falls back to:
        # exact parity.
        keys = checked_keys(keys, "IBLT keys", array_above=0 if self.num_limbs == 1 else None)
        if is_key_array(keys):  # every key below 2**64: its own fold, in the last limb
            if self.num_limbs == 1:
                return KeyBatch(keys, keys)
            limbs = _np.zeros((keys.size, self.num_limbs), dtype=_np.uint64)
            limbs[:, -1] = keys
            return KeyBatch(limbs, keys)
        try:
            return self.coerce_keys(keys)
        except (OverflowError, TypeError, ValueError):
            # A key wider than the limbs somewhere: re-raise with exact parity.
            for key in keys:
                _validate_key_scalar(key, key_bits)
            raise  # pragma: no cover - scalar validation always raises first

    def coerce_keys(self, keys: Sequence[int]) -> KeyBatch:
        """Like :meth:`prepare_keys` for keys already known valid."""
        if self.num_limbs == 1:
            words = _np.asarray(keys, dtype=_np.uint64)
            return KeyBatch(words, words)
        limbs = _limbs_of(keys, self.num_limbs)
        return KeyBatch(limbs, fingerprint64_rows(limbs))

    def apply_batch(self, keys, deltas, family: HashFamily, checksum: Checksum) -> None:
        """Scatter a key batch; ``deltas`` is one int or one per key."""
        limbs, folds = keys if isinstance(keys, KeyBatch) else self.coerce_keys(keys)
        if folds.size == 0:
            return
        cells, checks = family.cells_and_checks_array(folds, checksum)
        scatter(self.dense_cells(), cells, limbs, checks, deltas, self.key_bits, checksum.bits)

    def combine(self, other: "NumpyCellStore", sign: int) -> None:
        """In-place cell-wise ``self += sign * other`` (counts add, XORs fold)."""
        if sign == 1:
            self._counts += other._counts
        else:
            self._counts -= other._counts
        self._key_xor ^= other._key_xor
        self._check_xor ^= other._check_xor

    def peel_rounds(self, checksum: Checksum, family: HashFamily) -> tuple[list[int], list[int]]:
        """Run the entire peeling loop in-store; return recovered keys.

        Peels the table in place, round by round: every currently pure cell
        (count residue of +-1, checksum-verified) is found in one scan, each
        key is chosen exactly once per round (first cell in ascending cell
        order wins), and all chosen keys are removed in one batch update.
        Stops when a round finds no pure cell or after
        :func:`max_peel_rounds` rounds.  Returns the keys recovered with
        positive and negative counts.
        """
        counts, key_xor, check_xor = self._counts, self._key_xor, self._check_xor
        positive: list[int] = []
        negative: list[int] = []
        for _ in range(max_peel_rounds(self.num_cells)):
            residues = count_residue(counts, self.count_bits)
            candidates = _np.nonzero(_np.abs(residues) == 1)[0]
            if candidates.size == 0:
                break
            limbs = key_xor[candidates]
            # Cells and checksums of every candidate in one mix; the few
            # that fail verification only cost their columns.
            cells, checks = family.cells_and_checks_array(_folds_of(limbs), checksum)
            verified = _np.flatnonzero(check_xor[candidates] == checks)
            if verified.size == 0:
                break
            # First cell in ascending order wins for a key pure in several
            # cells: the candidate scan is in cell order, so keep each key's
            # first index (a round peels a handful of keys: a dict beats
            # np.unique's sort).
            first: dict[int, int] = {}
            for index, key in zip(verified.tolist(), _ints_of(limbs[verified])):
                first.setdefault(key, index)
            chosen = _np.fromiter(first.values(), dtype=_np.int64, count=len(first))
            limbs = limbs[chosen]
            signs = residues[candidates[chosen]]
            for key, sign in zip(first, signs.tolist()):
                (positive if sign == 1 else negative).append(key)
            cells, checks = cells[:, chosen], checks[chosen]
            scatter(self.dense_cells(), cells, limbs, checks, -signs, self.key_bits, checksum.bits)
        return positive, negative

    def _with_cells(self, counts, key_xor, check_xor) -> "NumpyCellStore":
        store = NumpyCellStore.__new__(NumpyCellStore)
        store.num_cells = counts.shape[0]
        store.count_bits = self.count_bits
        store.key_bits = self.key_bits
        store.num_limbs = self.num_limbs
        store._counts, store._key_xor, store._check_xor = counts, key_xor, check_xor
        return store

    def _by_region(self, array, regions: int, *shape: int):
        """``array`` viewed as ``(regions, *shape)`` cells, limbs kept last."""
        return array.reshape((regions, *shape) + array.shape[1:])

    # -- folding --------------------------------------------------------------------
    #
    # A table of ``regions`` equal regions maps hash i to region i at
    # ``mix % size``; as (x mod 2r) mod r = x mod r, adding each cell into its
    # position modulo a divisor of the region size gives the table of the same
    # keys at that size.  The three methods below are that identity's pieces.

    def folded(self, regions: int, num_cells: int) -> "NumpyCellStore":
        """A new store of ``num_cells`` cells: every cell added into its
        offset modulo the smaller region size (``num_cells // regions`` must
        divide this store's)."""
        target = num_cells // regions
        shape = (self.num_cells // regions // target, target)
        flat = (num_cells,)
        return self._with_cells(
            self._by_region(self._counts, regions, *shape).sum(axis=1).reshape(flat),
            _np.bitwise_xor.reduce(self._by_region(self._key_xor, regions, *shape), axis=1)
            .reshape(flat + self._key_xor.shape[1:]),
            _np.bitwise_xor.reduce(self._by_region(self._check_xor, regions, *shape), axis=1)
            .reshape(flat),
        )

    def upper_half(self, regions: int) -> "NumpyCellStore":
        """A new store of the upper half of every region, in region order:
        what this store adds over its fold to half the size."""
        half = self.num_cells // regions // 2

        def upper(array):
            return _np.ascontiguousarray(
                self._by_region(array, regions, 2, half)[:, 1]
            ).reshape((regions * half,) + array.shape[1:])

        return self._with_cells(upper(self._counts), upper(self._key_xor), upper(self._check_xor))

    def unfolded(self, upper: "NumpyCellStore", regions: int) -> "NumpyCellStore":
        """The store of twice the size whose fold is this one and whose
        :meth:`upper_half` is ``upper``: each region's lower half is
        ``self - upper`` and its upper half ``upper``."""
        size = self.num_cells // regions

        def joined(fold, top, lower):
            fold = self._by_region(fold, regions, 1, size)
            top = self._by_region(top, regions, 1, size)
            return _np.concatenate([lower(fold, top), top], axis=1).reshape(
                (2 * self.num_cells,) + fold.shape[3:]
            )

        return self._with_cells(
            joined(self._counts, upper._counts, _np.subtract),
            joined(self._key_xor, upper._key_xor, _np.bitwise_xor),
            joined(self._check_xor, upper._check_xor, _np.bitwise_xor),
        )

    def dense_cells(self):
        """The live ``(counts, key_xor, check_xor)`` arrays (not copies);
        ``key_xor`` is ``(num_cells, num_limbs)`` past one limb.

        Lets the array cell codec (:mod:`repro.iblt.codec`) and
        same-parameter batch layers (:mod:`repro.iblt.multi`) read the
        cells without a round trip through Python lists.  The counts are
        exact: callers read them through :func:`count_residue` and must not
        mutate the arrays.
        """
        return self._counts, self._key_xor, self._check_xor

    def load_dense(self, counts, key_xor, check_xor):
        """Take over arrays shaped as :meth:`dense_cells` returns them
        (deserialization; the arrays must not be used elsewhere)."""
        self._counts, self._key_xor, self._check_xor = counts, key_xor, check_xor

    def is_empty(self) -> bool:
        """True when every cell is all-zero (counts read as residues)."""
        return not (
            count_residue(self._counts, self.count_bits).any()
            or self._key_xor.any()
            or self._check_xor.any()
        )

    def snapshot(self) -> tuple[list[int], list[int], list[int]]:
        """Cell contents as ``(counts, key_xors, check_xors)`` Python lists,
        every count as its residue (:func:`count_residue`)."""
        return (
            count_residue(self._counts, self.count_bits).tolist(),
            _ints_of(self._key_xor),
            self._check_xor.tolist(),
        )

    def copy(self) -> "NumpyCellStore":
        """Independent deep copy."""
        return self._with_cells(
            self._counts.copy(), self._key_xor.copy(), self._check_xor.copy()
        )
