"""Families of independent seeded hash functions.

An IBLT with ``k`` hash functions needs ``k`` independent functions that both
parties agree on.  :class:`HashFamily` derives them from a single seed.  The
family also provides the *partitioned* bucket mapping recommended by the
paper ("one can use a partitioned hash table, with each hash function having
m/k cells"), which guarantees that the k cells a key maps to are distinct.

Bucket indices come from the shared 64-bit mixing core
(:mod:`repro.hashing.mix`) and are exposed in two matched forms:

* :meth:`HashFamily.cells_for` -- one key at a time (the single-key
  ``IBLT.insert`` / ``delete``);
* :meth:`HashFamily.cells_for_array` -- a NumPy ``uint64`` key array mapped
  to a ``(num_hashes, n)`` index matrix by one mix over a ``(k, n)`` matrix
  (:meth:`HashFamily.cells_and_checks_array` adds the cell checksums as one
  more row of the same mix).

Both agree exactly, so a key lands in the same cells whichever way the cell
store (:mod:`repro.iblt.backends`) is fed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as _np

from repro.errors import ParameterError
from repro.hashing.checksum import Checksum
from repro.hashing.mix import MASK64, fingerprint64, mix64, mix64_inplace
from repro.hashing.prf import derive_seed


@dataclass
class HashFamily:
    """``k`` independent hash functions mapping keys to cells of a table.

    Parameters
    ----------
    seed:
        Shared seed.
    num_hashes:
        Number of hash functions ``k``.
    num_cells:
        Total number of table cells ``m``.  The table is partitioned into
        ``k`` contiguous regions; hash function ``i`` maps into region ``i``.
    """

    seed: int
    num_hashes: int
    num_cells: int
    _seeds: list[int] = field(init=False, repr=False, default_factory=list)
    _region_bounds: list[tuple[int, int]] = field(
        init=False, repr=False, default_factory=list
    )

    def __post_init__(self) -> None:
        if self.num_hashes <= 0:
            raise ParameterError("num_hashes must be positive")
        if self.num_cells < self.num_hashes:
            raise ParameterError("num_cells must be at least num_hashes")
        self._seeds = [
            derive_seed(self.seed, "hash-family", index) & MASK64
            for index in range(self.num_hashes)
        ]
        base = self.num_cells // self.num_hashes
        remainder = self.num_cells % self.num_hashes
        bounds: list[tuple[int, int]] = []
        start = 0
        for index in range(self.num_hashes):
            size = base + (1 if index < remainder else 0)
            bounds.append((start, size))
            start += size
        self._region_bounds = bounds
        # Columns, so one XOR broadcasts a key row against every seed.
        self._np_seeds = _np.array(self._seeds, dtype=_np.uint64)[:, None]
        self._np_starts = _np.array([start for start, _ in bounds], dtype=_np.int64)[:, None]
        self._np_sizes = _np.array([size for _, size in bounds], dtype=_np.uint64)[:, None]
        self._np_joint_seeds: dict[Checksum, _np.ndarray] = {}

    def cells_for(self, key: int) -> list[int]:
        """Return the ``k`` distinct cell indices for ``key``.

        One cell per partition region, so the indices are always distinct.
        """
        fingerprint = fingerprint64(key)
        cells: list[int] = []
        for seed, (start, size) in zip(self._seeds, self._region_bounds):
            cells.append(start + mix64(fingerprint ^ seed) % size)
        return cells

    def region_of(self, cell_index: int) -> int:
        """Return which hash function's region a cell index belongs to."""
        if not 0 <= cell_index < self.num_cells:
            raise ParameterError("cell index out of range")
        for region, (start, size) in enumerate(self._region_bounds):
            if start <= cell_index < start + size:
                return region
        raise ParameterError("cell index out of range")  # pragma: no cover

    def cells_for_array(self, keys) -> "_np.ndarray":
        """Vectorized bucket mapping for a ``uint64`` key array.

        Returns an ``(num_hashes, n)`` ``int64`` matrix whose column ``j``
        equals ``cells_for(keys[j])``, from one mix over the ``(k, n)``
        matrix of keys XOR seeds.  Callers guarantee the keys fit in
        64 bits (the vectorized cell stores enforce this).
        """
        return self._cells_of(mix64_inplace(keys ^ self._np_seeds))

    def cells_and_checks_array(self, keys, checksum: Checksum):
        """:meth:`cells_for_array` and ``checksum.of_keys_array(keys)``
        from one ``(k + 1)``-row mix: the checksum's seed is one more row
        of the same XOR (a checksum of at most 64 bits)."""
        seeds = self._np_joint_seeds.get(checksum)
        if seeds is None:
            seeds = _np.append(self._np_seeds, [[checksum._np_seed]], axis=0)
            self._np_joint_seeds[checksum] = seeds
        mixed = mix64_inplace(keys ^ seeds)
        return self._cells_of(mixed[:-1]), mixed[-1] & checksum._np_mask

    def _cells_of(self, mixed):
        # Residues are below a region size, so the int64 view is exact.
        cells = (mixed % self._np_sizes).view(_np.int64)
        cells += self._np_starts
        return cells
