"""Batched construction of many IBLTs sharing one parameter set.

The set-of-sets protocols of Section 3 encode every child set of a parent
into its own small IBLT, all built from the *same* :class:`IBLTParameters`
(same seed, same cell count).  Built one at a time through
:meth:`IBLT.from_items`, each child pays for its own hash-family derivation,
cell-store set-up and per-table scatter -- a Python ``O(n)`` loop that
dominates encoding for parents with many small children.

:class:`IBLTArray` materializes all ``s`` child tables in one pass instead:
the children are flattened to ``(child_index, element)`` pairs
(:class:`FlatChildren`: once, however many parameter sets are built over
them), the whole flat element array is hashed once through the batch pipeline
(:meth:`~repro.hashing.family.HashFamily.cells_and_checks_array`: cells
and checksums from one mix), and the results are scattered into a single
``(s, num_cells)`` cell tensor by one :func:`~repro.iblt.backends.scatter`
call for the entire parent set.  :meth:`IBLTArray.serialize_all` writes
the tensor out the same way: all cells as bit planes, packed to bytes in
one pass, one ``int.from_bytes`` per row.  Keys wider than one 64-bit word
take the per-row path instead: the array builds and serializes each row
through the ordinary per-table path, so the contents are bit-identical:
``IBLTArray(params, children).table(i)`` always equals
``IBLT.from_items(params, children[i])``.

The many-balls-into-many-bins structure of this batch build (every element
is a ball thrown into its child's row of bins) is exactly the regime the
balls-and-bins literature analyzes; nothing here depends on those bounds,
but they are why one flat scatter is safe: rows never interact.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable, Sequence, TypeVar

import numpy as _np

from repro.errors import ParameterError
from repro.hashing.mix import checked_keys, is_key_array
from repro.iblt.backends import check_backend, count_residue, max_peel_rounds, scatter
from repro.iblt.codec import pack_rows
from repro.iblt.table import IBLT, DecodeResult, IBLTParameters


def _peel_tensor(counts, key_xor, check_xor, family, checksum, params):
    """Peel every row of an ``(s, num_cells)`` cell tensor, in place.

    Rows never share cells, so one *global* round (pure-cell scan over the
    whole flattened tensor, per-(row, key) dedup, one batched removal)
    advances every still-active row exactly as its own isolated peeling
    round would -- a row with no pure cells is simply untouched and stays
    frozen.  Each row therefore evolves bit-identically to
    ``IBLT.try_decode`` on that row alone, at a fraction of the dispatch
    cost.  Returns one :class:`~repro.iblt.table.DecodeResult` per row.
    """
    num_tables, num_cells = counts.shape
    count_bits, key_bits = params.count_bits, params.key_bits
    flat_counts = counts.reshape(-1)
    flat_keys = key_xor.reshape(-1)
    flat_checks = check_xor.reshape(-1)
    arrays = (flat_counts, flat_keys, flat_checks)
    positive: list[list[int]] = [[] for _ in range(num_tables)]
    negative: list[list[int]] = [[] for _ in range(num_tables)]
    for _ in range(max_peel_rounds(num_cells)):
        residues = count_residue(flat_counts, count_bits)
        candidates = _np.nonzero(_np.abs(residues) == 1)[0]
        if candidates.size == 0:
            break
        keys = flat_keys[candidates]
        cells, checks = family.cells_and_checks_array(keys, checksum)
        verified = flat_checks[candidates] == checks
        candidates = candidates[verified]
        if candidates.size == 0:
            break
        keys = keys[verified]
        checks = checks[verified]
        cells = cells[:, verified]
        signs = residues[candidates]
        rows = candidates // num_cells
        # First cell in ascending cell order wins per (row, key) pair --
        # the same tie-break as the store's peel.  Sort by (row, key,
        # candidate position) and keep each group's first element.
        order = _np.lexsort((_np.arange(candidates.size), keys, rows))
        sorted_rows = rows[order]
        sorted_keys = keys[order]
        boundary = _np.ones(order.size, dtype=bool)
        boundary[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (
            sorted_keys[1:] != sorted_keys[:-1]
        )
        winners = order[boundary]
        chosen_keys = keys[winners]
        chosen_signs = signs[winners]
        chosen_checks = checks[winners]
        row_offsets = rows[winners] * num_cells
        cells = cells[:, winners] + row_offsets
        scatter(arrays, cells, chosen_keys, chosen_checks, -chosen_signs, key_bits, checksum.bits)
        for row, key, sign in zip(
            rows[winners].tolist(), chosen_keys.tolist(), chosen_signs.tolist()
        ):
            (positive[row] if sign == 1 else negative[row]).append(key)
    decoded = ~(
        count_residue(counts, count_bits).any(axis=1)
        | key_xor.any(axis=1)
        | check_xor.any(axis=1)
    )
    return [
        DecodeResult(bool(decoded[row]), set(positive[row]), set(negative[row]))
        for row in range(num_tables)
    ]


_Batch = TypeVar("_Batch", bound="FlatChildren")


class FlatChildren:
    """One parent's children flattened once, for every encoder and array
    built over them.

    ``elements`` is every element, row after row, as one ``uint64`` array,
    and ``sizes`` the row lengths (``int64``); rows keep their given order
    and their elements' multiplicities.  Elements are validated once, on
    construction (integers, non-negative).  A batch holding an element of
    ``2**64`` or more has ``elements = None``, and its readers take the
    per-row path over :attr:`rows`.  ``keys`` is the
    :class:`~repro.iblt.backends.KeyBatch` the first tensor build made,
    which the later ones (the other levels of a cascade) only width-check.
    """

    def __init__(self, children: Iterable[Iterable[int]]) -> None:
        rows = [
            child if isinstance(child, (list, tuple)) else list(child)
            for child in children
        ]
        elements = checked_keys(chain.from_iterable(rows), "child set elements", array_above=0)
        if not is_key_array(elements):  # no element, or one past 64 bits
            elements = None if elements else _np.empty(0, dtype=_np.uint64)
        self._init(elements, _np.fromiter(map(len, rows), dtype=_np.int64, count=len(rows)), rows)

    @classmethod
    def from_arrays(cls: type[_Batch], elements: Any, sizes: Any) -> _Batch:
        """A batch over a ``uint64`` element array and its ``int64`` row
        sizes, taken as they are (no validation)."""
        batch = cls.__new__(cls)
        batch._init(elements, sizes, None)
        return batch

    @classmethod
    def from_checked_rows(cls: type[_Batch], rows: list) -> _Batch:
        """A batch of list rows whose elements are known to be non-negative
        ints (a :class:`~repro.core.setsofsets.types.SetOfSets` checked its
        own), flattened without checking them again."""
        sizes = _np.fromiter(map(len, rows), dtype=_np.int64, count=len(rows))
        try:
            elements = _np.fromiter(
                chain.from_iterable(rows), dtype=_np.uint64, count=int(sizes.sum())
            )
        except OverflowError:  # an element past 64 bits
            elements = None
        batch = cls.__new__(cls)
        batch._init(elements, sizes, rows)
        return batch

    def _init(self, elements: Any, sizes: Any, rows: list | None) -> None:
        self.elements = elements
        self.sizes = sizes
        self.starts = _np.cumsum(sizes) - sizes
        self._rows = rows
        self.keys: Any = None

    @property
    def rows(self) -> list:
        """The rows as Python lists (built from the arrays on first use)."""
        if self._rows is None:
            flat = self.elements.tolist()
            stops = (self.starts + self.sizes).tolist()
            self._rows = [flat[start:stop] for start, stop in zip(self.starts.tolist(), stops)]
        return self._rows

    def row(self, index: int) -> list[int]:
        """Row ``index`` as a list, without building the others."""
        if self._rows is not None:
            return self._rows[index]
        start = int(self.starts[index])
        return self.elements[start : start + int(self.sizes[index])].tolist()

    @property
    def num_children(self) -> int:
        return len(self.sizes)

    @property
    def total_elements(self) -> int:
        return int(self.sizes.sum())

    def reduce_rows(self, ufunc: Any, values: Any) -> Any:
        """``ufunc`` folded over each row's entries of ``values`` (one per
        element, in element order), 0 for an empty row: one ``reduceat``."""
        folds = _np.zeros(len(self.sizes), dtype=values.dtype)
        # reduceat answers an empty segment with the *next* segment's first
        # value, so fold the non-empty rows only (their starts still
        # partition the flat array).
        occupied = _np.flatnonzero(self.sizes)
        if occupied.size:
            folds[occupied] = ufunc.reduceat(values, self.starts[occupied])
        return folds


class IBLTArray:
    """A batch of IBLTs over shared parameters, built in one vectorized pass.

    Parameters
    ----------
    params:
        Shared table configuration; every row uses the same cell count, seed
        and widths (this is what lets the rows share one flat hashing pass).
    children:
        A sequence of key collections, one per table, or the
        :class:`FlatChildren` of one.  Row ``i`` holds exactly the contents
        of ``IBLT.from_items(params, children[i])``.
    backend:
        Checked as :class:`~repro.iblt.table.IBLT` checks it, then dropped.

    The rows share one tensor when keys fit in 64 bits, and are per-row
    tables otherwise.
    """

    def __init__(
        self,
        params: IBLTParameters,
        children: "Sequence[Iterable[int]] | FlatChildren",
        backend: str | None = None,
    ) -> None:
        check_backend(backend)
        self.params = params
        flat = children if isinstance(children, FlatChildren) else FlatChildren(children)
        self.num_tables = flat.num_children
        # One template table supplies the shared hash family, checksum and
        # cell store; rows clone it instead of re-deriving seeds.
        self._template = IBLT(params)
        self._vectorized = params.key_bits <= 64
        if self._vectorized:
            self._tables: list[IBLT] | None = None
            self._build_tensor(flat)
        else:
            self._counts = self._key_xor = self._check_xor = None
            tables = []
            for child in flat.rows:
                table = self._template.copy()
                table.insert_batch(child)
                tables.append(table)
            self._tables = tables

    @property
    def backend(self) -> str:
        """Name of the rows' cell store: ``"numpy"``."""
        return self._template.backend

    @property
    def vectorized(self) -> bool:
        """True when the rows live in one ``(s, num_cells)`` cell tensor."""
        return self._vectorized

    # -- construction ----------------------------------------------------------------

    def _build_tensor(self, flat: FlatChildren) -> None:
        """Scatter every (child_index, element) pair of the flat array at once."""
        params = self.params
        num_cells = params.num_cells
        if flat.keys is not None:  # an earlier build's key batch: a width check
            elements = flat.keys
        elif flat.elements is not None:
            elements = flat.elements
        else:  # an element past 64 bits: the store refuses it as it would a key
            elements = chain.from_iterable(flat.rows)
        flat.keys = self._template._store.prepare_keys(elements, params.key_bits)
        keys = flat.keys.folds
        total_cells = self.num_tables * num_cells
        counts = _np.zeros(total_cells, dtype=_np.int64)
        key_xor = _np.zeros(total_cells, dtype=_np.uint64)
        check_xor = _np.zeros(total_cells, dtype=_np.uint64)
        if keys.size:
            family = self._template._family
            checksum = self._template._checksum
            # Row offset per flat key; broadcasting adds it to every hash row.
            offsets = _np.repeat(
                _np.arange(self.num_tables, dtype=_np.int64) * num_cells, flat.sizes
            )
            cells, checks = family.cells_and_checks_array(keys, checksum)
            arrays = (counts, key_xor, check_xor)
            scatter(arrays, cells + offsets, keys, checks, 1, params.key_bits, checksum.bits)
        shape = (self.num_tables, num_cells)
        self._counts = counts.reshape(shape)
        self._key_xor = key_xor.reshape(shape)
        self._check_xor = check_xor.reshape(shape)

    @classmethod
    def from_difference(
        cls, minuend: IBLT, subtrahends: Sequence[IBLT]
    ) -> "IBLTArray | None":
        """Batch the differences ``minuend - subtrahends[i]`` into one array.

        Row ``i`` holds exactly the cells of
        ``minuend.subtract(subtrahends[i])``, stacked into one tensor so
        :meth:`decode_all` can peel every difference at once -- the decode
        side of the sets-of-sets candidate loops.  Returns ``None`` for keys
        wider than 64 bits (off the tensor path), in which case callers
        should fall back to per-pair ``subtract().try_decode()`` (whose lazy
        early exit is the better economics there anyway).
        """
        if minuend.params.key_bits > 64:
            return None
        for table in subtrahends:
            if table.params != minuend.params:
                raise ParameterError("cannot combine IBLTs with different parameters")
        num_cells = minuend.params.num_cells
        base_counts, base_keys, base_checks = minuend._store.dense_cells()
        counts = _np.empty((len(subtrahends), num_cells), dtype=_np.int64)
        key_xor = _np.empty((len(subtrahends), num_cells), dtype=_np.uint64)
        check_xor = _np.empty((len(subtrahends), num_cells), dtype=_np.uint64)
        for index, table in enumerate(subtrahends):
            other_counts, other_keys, other_checks = table._store.dense_cells()
            counts[index] = base_counts - other_counts
            key_xor[index] = base_keys ^ other_keys
            check_xor[index] = base_checks ^ other_checks
        array = cls.__new__(cls)
        array.params = minuend.params
        array.num_tables = len(subtrahends)
        array._template = minuend
        array._vectorized = True
        array._tables = None
        array._counts = counts
        array._key_xor = key_xor
        array._check_xor = check_xor
        return array

    # -- materialization -------------------------------------------------------------

    def table(self, index: int) -> IBLT:
        """Materialize row ``index`` as an independent :class:`IBLT`.

        The returned table shares nothing mutable with the array, so callers
        may subtract from or decode it freely.
        """
        if self._tables is not None:
            return self._tables[index].copy()
        table = self._template.copy()
        table._store.load_dense(
            self._counts[index].copy(),
            self._key_xor[index].copy(),
            self._check_xor[index].copy(),
        )
        return table

    def tables(self) -> list[IBLT]:
        """Materialize every row (see :meth:`table`)."""
        return [self.table(index) for index in range(self.num_tables)]

    # -- decoding --------------------------------------------------------------------

    def decode_all(self) -> list[DecodeResult]:
        """Decode every row; row ``i`` equals ``self.table(i).try_decode()``.

        On the tensor path all rows peel together through one whole-tensor
        round loop (:func:`_peel_tensor`) without materializing a single
        per-row :class:`IBLT`; the fallback path decodes each materialized
        table through the ordinary in-store peel.  Results are bit-identical
        either way.
        """
        if self._tables is not None:
            return [table.try_decode() for table in self._tables]
        return _peel_tensor(
            self._counts.copy(),
            self._key_xor.copy(),
            self._check_xor.copy(),
            self._template._family,
            self._template._checksum,
            self.params,
        )

    # -- serialization ---------------------------------------------------------------

    def serialize_all(self) -> list[int]:
        """Canonical serializations of every row, in order.

        Row ``i`` equals ``self.table(i).serialize()`` bit for bit.  On the
        tensor path every cell is written as bit planes (``count`` modulo
        ``2**count_bits`` ``|| key_xor || check_xor``, cell 0 first, MSB
        first) and packed to bytes in one pass; a row then costs one
        ``int.from_bytes``.  The low ``count_bits`` planes of an exact
        two's-complement count are its residue's.
        """
        if self._tables is not None:
            return [table.serialize() for table in self._tables]
        return pack_rows(self.params, self._counts, self._key_xor, self._check_xor)

    def __len__(self) -> int:
        return self.num_tables

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IBLTArray(tables={self.num_tables}, cells={self.params.num_cells}, "
            f"vectorized={self._vectorized})"
        )
