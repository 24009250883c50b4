"""Seeded hashing primitives (the paper's "public coins").

Every protocol in the paper assumes Alice and Bob share random hash functions
at no communication cost (public coins, Section 2).  In this library both
parties derive identical hash functions from a shared integer ``seed``.  The
primitives here are:

* :class:`~repro.hashing.prf.SeededHasher` -- a keyed BLAKE2b based hash that
  maps arbitrary byte strings / integers to integers of a requested width.
* :class:`~repro.hashing.family.HashFamily` -- a family of independent seeded
  hashers derived from one seed, used for the k hash functions of an IBLT.
* helpers for checksums and for mapping set elements to field elements;
* :func:`~repro.hashing.mix.checked_keys`, the one ingestion of a caller's
  key batch: validated once, and a ``uint64`` array whenever one holds it.

The IBLT inner-loop hashes (:class:`~repro.hashing.family.HashFamily` bucket
choices and :class:`~repro.hashing.checksum.Checksum` values) are built on
the 64-bit mixing core of :mod:`repro.hashing.mix` and expose matched
scalar and array APIs (``cells_for`` / ``cells_for_array``, ``of_key`` /
``of_keys_array``) so the cell store hashes whole key arrays at once while
agreeing bit for bit with the single-key path.  The same
core is the one order-independent *set fold*
(:meth:`~repro.hashing.checksum.Checksum.of_set` / ``of_sets``) behind every
whole-set verification hash and child-set hash.
"""

from repro.hashing.prf import SeededHasher, derive_seed, int_to_bytes, bytes_to_int
from repro.hashing.mix import checked_keys, fingerprint64, mix64
from repro.hashing.family import HashFamily
from repro.hashing.checksum import Checksum

__all__ = [
    "SeededHasher",
    "HashFamily",
    "Checksum",
    "derive_seed",
    "int_to_bytes",
    "bytes_to_int",
    "mix64",
    "fingerprint64",
    "checked_keys",
]
