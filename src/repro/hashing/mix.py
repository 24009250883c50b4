"""64-bit mixing primitives shared by the scalar and array hash paths.

The IBLT inner loops (bucket choice and per-key checksums) are the hot path
of every protocol in this library.  Deriving those values from keyed BLAKE2b
one key at a time is robust but slow, and -- crucially -- impossible to
vectorize.  This module defines the mixing function both paths use instead:

* :func:`mix64` -- the splitmix64 finalizer, a bijective avalanche mixer on
  64-bit words, computed with plain Python integers;
* :func:`mix64_array` -- the *same* function on a NumPy ``uint64`` array,
  element for element identical to :func:`mix64`;
* :func:`fingerprint64` -- folds an arbitrarily wide key to the 64-bit word
  the mixers consume.  Keys that already fit in 64 bits are used as-is (so
  the scalar and vectorized paths agree without any hashing); wider keys
  (e.g. serialized child IBLTs used as parent-table keys, Section 3.2) are
  folded through BLAKE2b once per key;
* :func:`fingerprint64_rows` -- :func:`fingerprint64` of every row of a
  ``uint64`` limb array (a wide key as ``L`` words, most significant first,
  the way the cell store holds it), read from the limbs' bytes: a wide key
  never becomes a Python int to be folded;
* :func:`checked_keys` -- the one ingestion of a caller's key batch, which
  refuses what the two paths would hash differently and hands the batch
  paths their ``uint64`` array.

Determinism rests on this file: the cell store (:mod:`repro.iblt.backends`)
derives bucket indices and checksums from these functions, and the scalar
routes that small batches take below their measured cutoffs agree with the
array routes value for value.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

import numpy as _np

from repro.errors import ParameterError

MASK64 = (1 << 64) - 1

_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """Splitmix64 finalizer: a bijective avalanche mixer on 64-bit words."""
    value &= MASK64
    value ^= value >> 30
    value = (value * _MULT_A) & MASK64
    value ^= value >> 27
    value = (value * _MULT_B) & MASK64
    return value ^ (value >> 31)


def fingerprint64(key: int) -> int:
    """Fold a non-negative key into the 64-bit word the mixers consume.

    Keys below ``2**64`` are returned unchanged, which is what makes the
    scalar and vectorized hash paths agree exactly.  Wider keys are folded
    with one BLAKE2b call (regardless of how many hash functions later
    consume the fingerprint, so wide-key hashing pays a single digest).
    """
    if key >> 64 == 0:
        return key
    data = key.to_bytes((key.bit_length() + 7) // 8, "big")
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, person=b"repro-fp64").digest(), "big"
    )


#: The keyed BLAKE2b state :func:`fingerprint64` starts from, copied once per
#: wide row by :func:`fingerprint64_rows` (a copy skips the keying).
_FP64_HASHER = hashlib.blake2b(digest_size=8, person=b"repro-fp64")


def fingerprint64_rows(limbs):
    """:func:`fingerprint64` of every row of an ``(n, L)`` ``uint64`` limb
    array, most significant limb first, as a ``uint64`` array.

    A row is read as its big-endian bytes with the leading zero bytes
    stripped (the bytes :func:`fingerprint64` hashes).  One that fits in a
    word is its own fold; any other is folded by one copy of the pre-keyed
    BLAKE2b state.
    """
    data = limbs.astype(">u8")
    width = data.shape[1] * 8
    nonzero = data.view(_np.uint8) != 0
    nonzero[:, -1] = True  # a zero row starts at its last byte
    skips = nonzero.argmax(axis=1)
    wide = _np.flatnonzero(skips < width - 8)
    folds = limbs[:, -1].copy()
    if wide.size:
        starts = wide * width
        raw = data.tobytes()
        copy = _FP64_HASHER.copy
        digests = []
        for start, stop in zip((starts + skips[wide]).tolist(), (starts + width).tolist()):
            hasher = copy()
            hasher.update(raw[start:stop])
            digests.append(hasher.digest())
        folds[wide] = _np.frombuffer(b"".join(digests), dtype=">u8")
    return folds


_INT_TYPES = frozenset({int, bool})


def is_key_array(values: object) -> bool:
    """True for a one-dimensional NumPy ``uint64`` array: a batch of keys
    below ``2**64`` that its dtype has already validated (no float, no
    negative, no key too wide), so the batch paths take it as it is."""
    return isinstance(values, _np.ndarray) and values.dtype == _np.uint64 and values.ndim == 1


def checked_keys(
    values: Iterable[int] | Any, what: str = "set elements", *, array_above: int | None = 0
) -> list[int] | Any:
    """The one ingestion of a batch of keys: validated once, in one form.

    A ``uint64`` array when there are more than ``array_above`` keys
    (``None``: never) and every key is below ``2**64``; else the checked
    list.  A ``uint64`` array comes back as it is (its dtype
    validated it).  Refused, as :class:`~repro.errors.ParameterError` naming
    ``what``: anything not an ``int`` (a float, even ``2.0``, which
    ``fromiter`` would truncate; a NumPy scalar; a string; ``None``) and a
    negative key.  ``bool`` and ``int`` subclasses are ints.  The type check
    is one C-level pass over the key types; only a batch holding another
    type (an ``int`` subclass at best) pays an ``isinstance`` per key.  On
    the array path the sign costs no pass: ``fromiter`` into ``uint64``
    raises ``OverflowError`` on a negative key (NumPy >= 2.0; 1.x wrapped
    it), and only the list a batch then falls back to takes a ``min`` pass.
    """
    if is_key_array(values):
        return values
    keys = list(values)
    if not set(map(type, keys)) <= _INT_TYPES and not all(
        isinstance(key, int) for key in keys
    ):
        raise ParameterError(f"{what} must be Python integers")
    if array_above is not None and len(keys) > array_above:
        try:
            return _np.fromiter(keys, dtype=_np.uint64, count=len(keys))
        except OverflowError:  # a negative key, or one of 2**64 or more
            pass
    if keys and min(keys) < 0:
        raise ParameterError(f"{what} must be non-negative")
    return keys


_NP_MULT_A = _np.uint64(_MULT_A)
_NP_MULT_B = _np.uint64(_MULT_B)
_NP_S30 = _np.uint64(30)
_NP_S27 = _np.uint64(27)
_NP_S31 = _np.uint64(31)


def mix64_array(values):
    """Vectorized :func:`mix64` over a ``uint64`` array (input not modified)."""
    return mix64_inplace(values.astype(_np.uint64, copy=True))


def mix64_inplace(z):
    """:func:`mix64_array` that overwrites ``z`` (a fresh ``uint64`` array
    its caller owns, e.g. the result of an XOR) and returns it."""
    z ^= z >> _NP_S30
    z *= _NP_MULT_A
    z ^= z >> _NP_S27
    z *= _NP_MULT_B
    z ^= z >> _NP_S31
    return z
