"""Invertible Bloom Lookup Tables (IBLTs).

The IBLT (Goodrich & Mitzenmacher; Section 2 of the paper) is the workhorse
of every efficient protocol in this library.  This package provides:

* :class:`~repro.iblt.table.IBLT` -- the table itself: insert, delete,
  subtraction of two tables, signed peeling decode with checksum-verified
  pure cells, and canonical fixed-width serialization (so that a child IBLT
  can itself be a key of a parent IBLT -- the "IBLT of IBLTs" construction of
  Section 3.2).  ``insert_batch``/``delete_batch`` feed whole key
  collections to the cell store in one scatter, and ``subtract``/``merge``
  combine tables cell-wise through it.
* :class:`~repro.iblt.table.IBLTParameters` -- the shared configuration both
  parties must agree on (cells, hash count, key width, seed).
* :mod:`repro.iblt.backends` -- the one cell store, the three per-cell
  accumulators as NumPy arrays.
* :mod:`repro.iblt.codec` -- the one cell codec behind ``serialize`` /
  ``deserialize``: the store's arrays as bit planes.
* :class:`~repro.iblt.multi.IBLTArray` -- batched construction of many
  tables over shared parameters (all child sketches of a set-of-sets parent
  in one flat hashing-and-scatter pass).
* :mod:`repro.iblt.sizing` -- recommended table sizes for a target difference
  bound, following the peeling thresholds referenced by Theorem 2.1.
"""

from repro.iblt.backends import NumpyCellStore
from repro.iblt.table import IBLT, IBLTParameters, DecodeResult
from repro.iblt.multi import IBLTArray
from repro.iblt.sizing import cells_for_difference, PEELING_THRESHOLDS

__all__ = [
    "IBLT",
    "IBLTParameters",
    "DecodeResult",
    "IBLTArray",
    "NumpyCellStore",
    "cells_for_difference",
    "PEELING_THRESHOLDS",
]
