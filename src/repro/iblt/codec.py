"""The one cell codec: IBLT cells to and from their canonical integer.

A table serializes to one fixed-width integer: its cells from index 0
upward, each as ``count (mod 2**count_bits) || key_xor || check_xor``, most
significant bit first (:meth:`~repro.iblt.table.IBLT.serialize`).  The
codec has two routes with identical output, chosen by the store a table
lives in:

* **Arrays** (:func:`pack_rows`, :func:`unpack_row`; needs NumPy): every
  field is written as bit planes and packed to bytes in one pass, so a
  table -- or each row of an :class:`~repro.iblt.multi.IBLTArray` -- costs
  one ``int.from_bytes``; reading unpacks the bytes once and packs each
  field's planes back into ``uint64`` words.  Keys of several limbs are
  planes of their limbs.  Used for :class:`~repro.iblt.backends.NumpyCellStore`.
* **Scalars** (:func:`fold_cells`, :func:`split_cells`): Python ints joined
  by balanced pairwise folding and split by recursive halving (appending
  one cell at a time re-copies the whole integer per cell, quadratic in
  table size).  Used for :class:`~repro.iblt.backends.PythonCellStore`
  and on NumPy-free installs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.hashing.mix import HAS_NUMPY
from repro.iblt.backends import count_residue

if HAS_NUMPY:
    import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.iblt.table import IBLTParameters


# -- scalar route -------------------------------------------------------------------


def fold_cells(
    params: "IBLTParameters", counts: list[int], key_xors: list[int], check_xors: list[int]
) -> int:
    """The canonical integer of cells given as Python ints (counts as residues)."""
    count_limit = 1 << params.count_bits
    chunks = [
        ((((count % count_limit) << params.key_bits) | key_xor) << params.checksum_bits)
        | check_xor
        for count, key_xor, check_xor in zip(counts, key_xors, check_xors)
    ]
    if not chunks:
        return 0
    widths = [params.cell_bits] * len(chunks)
    while len(chunks) > 1:
        joined_chunks: list[int] = []
        joined_widths: list[int] = []
        for index in range(0, len(chunks) - 1, 2):
            joined_chunks.append((chunks[index] << widths[index + 1]) | chunks[index + 1])
            joined_widths.append(widths[index] + widths[index + 1])
        if len(chunks) % 2:
            joined_chunks.append(chunks[-1])
            joined_widths.append(widths[-1])
        chunks, widths = joined_chunks, joined_widths
    return chunks[0]


def split_cells(
    params: "IBLTParameters", encoded: int
) -> tuple[list[int], list[int], list[int]]:
    """Inverse of :func:`fold_cells` for an ``encoded`` of at most
    ``params.size_bits`` bits: ``(counts, key_xors, check_xors)``, every
    count as its signed residue."""
    count_limit = 1 << params.count_bits
    half = count_limit >> 1
    key_mask = (1 << params.key_bits) - 1
    check_mask = (1 << params.checksum_bits) - 1
    cell_bits = params.cell_bits

    def split(value: int, count: int) -> list[int]:
        if count == 1:
            return [value]
        right_count = count // 2
        right_bits = cell_bits * right_count
        left = value >> right_bits
        right = value & ((1 << right_bits) - 1)
        return split(left, count - right_count) + split(right, right_count)

    counts: list[int] = []
    key_xors: list[int] = []
    check_xors: list[int] = []
    for packed in split(encoded, params.num_cells):
        check_xors.append(packed & check_mask)
        packed >>= params.checksum_bits
        key_xors.append(packed & key_mask)
        raw_count = packed >> params.key_bits
        counts.append(raw_count - count_limit if raw_count >= half else raw_count)
    return counts, key_xors, check_xors


# -- array route --------------------------------------------------------------------

if HAS_NUMPY:

    def _bit_planes(values: Any, width: int) -> Any:
        """The low ``width`` bits of every 64-bit value, MSB first, on a new last
        axis, unpacked from only the big-endian bytes that hold them.  ``int64``
        reads as two's complement; a field wider than 64 bits (on the tensor
        path only a count can be) repeats the sign plane."""
        num_bytes = min(8, (width + 7) // 8)
        octets = values.astype(values.dtype.newbyteorder(">")).view(_np.uint8)
        planes = _np.unpackbits(
            octets.reshape(values.shape + (8,))[..., 8 - num_bytes :], axis=-1
        )
        if width > 64:
            sign = _np.repeat(planes[..., :1], width - 64, axis=-1)
            return _np.concatenate([sign, planes], axis=-1)
        return planes[..., 8 * num_bytes - width :]

    def _key_planes(key_xor: Any, key_bits: int, cell_shape: tuple[int, ...]) -> Any:
        """Key planes of one word per cell, or of ``L`` limbs (most
        significant first) per cell on a last axis."""
        if key_xor.shape == cell_shape:
            return _bit_planes(key_xor, key_bits)
        limb_bits = 64 * key_xor.shape[-1]
        planes = _bit_planes(key_xor, 64).reshape(cell_shape + (limb_bits,))
        return planes[..., limb_bits - key_bits :]

    def pack_rows(
        params: "IBLTParameters", counts: Any, key_xor: Any, check_xor: Any
    ) -> list[int]:
        """The canonical integer of every row of an ``(s, num_cells)`` cell
        tensor (``key_xor`` may carry a last limb axis).  The low
        ``count_bits`` planes of an exact two's-complement count are its
        residue's, so exact counts pack as their residues do."""
        planes = _np.concatenate(
            [
                _bit_planes(counts, params.count_bits),
                _key_planes(key_xor, params.key_bits, counts.shape),
                _bit_planes(check_xor, params.checksum_bits),
            ],
            axis=-1,
        )
        # packbits pads a row's last byte on the right; shift that back out.
        packed = _np.packbits(planes.reshape(len(counts), params.size_bits), axis=1)
        padding = -params.size_bits % 8
        row_bytes = packed.shape[1]
        data = packed.tobytes()
        return [
            int.from_bytes(data[start : start + row_bytes], "big") >> padding
            for start in range(0, len(data), row_bytes)
        ]

    def _words(planes: Any, width: int) -> Any:
        """``(n, width)`` bit planes, MSB first, as ``(n, ceil(width / 64))``
        big-endian words (``uint64``)."""
        num_words = -(-width // 64)
        padded = _np.zeros((len(planes), 64 * num_words), dtype=_np.uint8)
        padded[:, 64 * num_words - width :] = planes
        octets = _np.packbits(padded, axis=1)
        return octets.view(">u8").astype(_np.uint64)

    def unpack_row(params: "IBLTParameters", encoded: int) -> tuple[Any, Any, Any]:
        """Inverse of :func:`pack_rows` for one table, for an ``encoded`` of
        at most ``params.size_bits`` bits: ``int64`` counts (the signed
        residues) and ``uint64`` XORs, ``key_xor`` of shape
        ``(num_cells, limbs)`` past one limb.  Needs ``count_bits <= 64``
        (a wider residue need not fit ``int64``)."""
        padding = -params.size_bits % 8
        data = (encoded << padding).to_bytes((params.size_bits + padding) // 8, "big")
        cells = _np.unpackbits(_np.frombuffer(data, dtype=_np.uint8))
        cells = cells[: params.size_bits].reshape(params.num_cells, params.cell_bits)
        key_start = params.count_bits
        check_start = key_start + params.key_bits
        raw_counts = _words(cells[:, :key_start], params.count_bits)[:, 0]
        counts = count_residue(raw_counts.view(_np.int64), params.count_bits)
        key_xor = _words(cells[:, key_start:check_start], params.key_bits)
        if key_xor.shape[1] == 1:
            key_xor = key_xor[:, 0]
        check_xor = _words(cells[:, check_start:], params.checksum_bits)[:, 0]
        return counts, key_xor, check_xor
