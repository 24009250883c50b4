"""Abstract interface for set-difference estimators.

Matches the definition in Section 3 of the paper: the structure implicitly
maintains two sets ``S1`` and ``S2`` and supports three operations --
``update(x, side)``, ``merge(other)`` and ``query()`` -- where ``query``
estimates ``|S1 xor S2|``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.errors import ParameterError


def sampled_level(level_hash: int, num_levels: int) -> int:
    """Deepest of ``num_levels`` geometric levels a 64-bit hash is sampled into.

    The number of trailing zeros of a uniform word is geometric with ratio
    1/2; both the L0 levels and the strata are chosen this way.
    """
    if level_hash == 0:
        return num_levels - 1
    return min((level_hash & -level_hash).bit_length() - 1, num_levels - 1)


class SetDifferenceEstimator(ABC):
    """Base class for set-difference estimators."""

    #: Sides an element can be added to, mirroring the paper's ``i in {1, 2}``.
    SIDES = (1, 2)

    @abstractmethod
    def update(self, element: int, side: int) -> None:
        """Add ``element`` to set ``S1`` (side=1) or ``S2`` (side=2)."""

    @abstractmethod
    def merge(self, other: "SetDifferenceEstimator") -> "SetDifferenceEstimator":
        """Return a new estimator representing the union of the two sketches."""

    @abstractmethod
    def query(self) -> int:
        """Return an estimate of ``|S1 xor S2|``."""

    @property
    @abstractmethod
    def size_bits(self) -> int:
        """Serialized size in bits, used for communication accounting."""

    # -- wire serialization ----------------------------------------------------------

    def write_wire(self, writer) -> None:
        """Append the transmitted state to a :class:`~repro.comm.bits.BitWriter`.

        Exactly :attr:`size_bits` bits are written -- the estimator's
        configuration (seed, shape) is shared knowledge and is *not*
        serialized, matching how protocols charge for estimator payloads.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support wire serialization")

    def read_wire(self, reader) -> None:
        """Fill this (freshly constructed, empty) estimator from a
        :class:`~repro.comm.bits.BitReader` (inverse of :meth:`write_wire`)."""
        raise NotImplementedError(f"{type(self).__name__} does not support wire serialization")

    # -- convenience helpers shared by implementations ------------------------------

    def _validate_side(self, side: int) -> None:
        if side not in self.SIDES:
            raise ParameterError(f"side must be 1 or 2, got {side}")

    def update_all(self, elements: Iterable[int], side: int) -> None:
        """Add every element of an iterable to the chosen side."""
        for element in elements:
            self.update(element, side)
