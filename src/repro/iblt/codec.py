"""The one cell codec: IBLT cells to and from their canonical integer.

A table serializes to one fixed-width integer: its cells from index 0
upward, each as ``count (mod 2**count_bits) || key_xor || check_xor``, most
significant bit first (:meth:`~repro.iblt.table.IBLT.serialize`).  Every
field is written as bit planes and packed to bytes in one pass
(:func:`pack_rows`), so a table -- or each row of an
:class:`~repro.iblt.multi.IBLTArray` -- costs one ``int.from_bytes``;
reading (:func:`unpack_row`) unpacks the bytes once and packs each field's
planes back into ``uint64`` words.  Keys of several limbs are planes of
their limbs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as _np

from repro.iblt.backends import count_residue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.iblt.table import IBLTParameters


def _bit_planes(values: Any, width: int) -> Any:
    """The low ``width`` (at most 64) bits of every 64-bit value, MSB first,
    on a new last axis, unpacked from only the big-endian bytes that hold
    them.  ``int64`` reads as two's complement."""
    num_bytes = (width + 7) // 8
    octets = values.astype(values.dtype.newbyteorder(">")).view(_np.uint8)
    planes = _np.unpackbits(
        octets.reshape(values.shape + (8,))[..., 8 - num_bytes :], axis=-1
    )
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
    ``(num_cells, limbs)`` past one limb."""
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
