"""Table-size heuristics for IBLT peeling success.

Theorem 2.1 states that an IBLT with ``m`` cells recovers up to ``c * m`` keys
with probability ``1 - O(1/poly(m))``.  The constant ``c`` is the 2-core
threshold of random k-uniform hypergraphs:

=====  =========================
k      peeling threshold c_k
=====  =========================
3      0.8184
4      0.7723
5      0.7020
=====  =========================

(so a table needs roughly ``d / c_k`` cells to decode ``d`` differences
asymptotically).  Small tables need proportionally more slack because the
concentration arguments only bite for large ``m``; the widely used practical
rule (e.g. Eppstein et al., "What's the Difference?") is a multiplier of
about 1.4-2x plus a small additive constant.  :func:`cells_for_difference`
encodes that rule and is used by every protocol in the library, so changing
the constants here uniformly re-tunes the whole system.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError

#: Asymptotic peeling (2-core) thresholds per number of hash functions.
PEELING_THRESHOLDS: dict[int, float] = {2: 0.5, 3: 0.8184, 4: 0.7723, 5: 0.7020}

#: Practical safety multipliers applied on top of ``1 / c_k`` for small tables.
_SMALL_TABLE_MULTIPLIER: dict[int, float] = {2: 2.0, 3: 1.50, 4: 1.40, 5: 1.45}

#: Additive slack in cells, dominating for very small difference bounds.
_ADDITIVE_SLACK = 8

#: The hash count ``k`` of every protocol's top-level tables: of the counts
#: above, 4 needs the fewest cells per key under these rules (1.40 / 0.7723,
#: against 1.50 / 0.8184 for 3 and 1.45 / 0.7020 for 5).
NUM_HASHES = 4


def cells_for_difference(
    difference_bound: int,
    num_hashes: int = NUM_HASHES,
    *,
    multiplier: float | None = None,
    slack: int | None = None,
) -> int:
    """Return a recommended cell count for decoding ``difference_bound`` keys.

    Parameters
    ----------
    difference_bound:
        Upper bound ``d`` on the number of keys that will remain in the table
        at decode time (the set-difference size for reconciliation).
    num_hashes:
        Number of hash functions ``k`` (3, 4 or 5 are sensible).
    multiplier, slack:
        Optional overrides of the built-in safety constants, used by the
        sizing ablation benchmark.

    Returns
    -------
    int
        A cell count that is a multiple of ``num_hashes`` (so the partitioned
        regions are equal) and at least ``2 * num_hashes``.
    """
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    if num_hashes not in PEELING_THRESHOLDS:
        raise ParameterError(
            f"num_hashes must be one of {sorted(PEELING_THRESHOLDS)}, got {num_hashes}"
        )
    if multiplier is None:
        multiplier = _SMALL_TABLE_MULTIPLIER[num_hashes]
    if slack is None:
        slack = _ADDITIVE_SLACK
    threshold = PEELING_THRESHOLDS[num_hashes]
    raw = multiplier * difference_bound / threshold + slack
    cells = max(2 * num_hashes, int(math.ceil(raw)))
    # Round up to a multiple of k so every partition region has equal size.
    if cells % num_hashes:
        cells += num_hashes - (cells % num_hashes)
    return cells


def capacity_of(num_cells: int, num_hashes: int = NUM_HASHES) -> int:
    """Rough inverse of :func:`cells_for_difference`.

    Returns the largest difference bound for which a table of ``num_cells``
    cells is recommended; used by the doubling protocols when deciding whether
    a received table could plausibly decode.
    """
    if num_hashes not in PEELING_THRESHOLDS:
        raise ParameterError(
            f"num_hashes must be one of {sorted(PEELING_THRESHOLDS)}, got {num_hashes}"
        )
    threshold = PEELING_THRESHOLDS[num_hashes]
    multiplier = _SMALL_TABLE_MULTIPLIER[num_hashes]
    return max(0, int((num_cells - _ADDITIVE_SLACK) * threshold / multiplier))
