"""Small utilities shared by the set reconciliation protocols."""

from __future__ import annotations

from typing import Iterable, Set


def symmetric_difference_size(first: Set[int], second: Set[int]) -> int:
    """``|first xor second|`` -- the quantity the paper calls ``d``."""
    return len(set(first) ^ set(second))


def apply_difference(
    base: Iterable[int], to_add: Iterable[int], to_remove: Iterable[int]
) -> set[int]:
    """Apply a decoded difference to a set.

    ``to_add`` are elements the other party has that ``base`` lacks
    (``S_A \\ S_B``), ``to_remove`` are elements ``base`` has that the other
    party lacks (``S_B \\ S_A``); the result is the other party's set.
    """
    result = set(base)
    result.difference_update(to_remove)
    result.update(to_add)
    return result


def max_element_bits(universe_size: int) -> int:
    """Bit width of elements drawn from ``[0, universe_size)``."""
    return max(1, (universe_size - 1).bit_length()) if universe_size > 1 else 1
