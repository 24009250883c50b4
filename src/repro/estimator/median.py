"""Median-of-replicas amplification for set-difference estimators.

Both the strata and L0 estimators succeed with constant probability; the
standard way to reach failure probability ``delta`` -- and the one the paper
cites ("taking the median of O(log(1/delta)) parallel runs") -- is to run
independent replicas and report the median estimate.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Iterable

from repro.errors import ParameterError
from repro.estimator.base import SetDifferenceEstimator
from repro.estimator.l0 import L0Estimator
from repro.hashing import derive_seed


class MedianEstimator(SetDifferenceEstimator):
    """Run several independent estimators and report the median query.

    Parameters
    ----------
    seed:
        Shared seed; replica ``i`` uses ``derive_seed(seed, "replica", i)``.
    num_replicas:
        Number of parallel estimators.  Use :meth:`replicas_for_delta` to map
        a target failure probability to a replica count.
    factory:
        Callable mapping a seed to an estimator instance.  Defaults to the
        paper's improved :class:`L0Estimator`.
    """

    def __init__(
        self,
        seed: int,
        num_replicas: int = 5,
        factory: Callable[[int], SetDifferenceEstimator] | None = None,
    ) -> None:
        if num_replicas <= 0:
            raise ParameterError("num_replicas must be positive")
        if factory is None:
            factory = L0Estimator
        self.seed = seed
        self.num_replicas = num_replicas
        self._factory = factory
        self._replicas = [
            factory(derive_seed(seed, "replica", index)) for index in range(num_replicas)
        ]

    @staticmethod
    def replicas_for_delta(delta: float) -> int:
        """Number of replicas needed for failure probability ``delta``.

        Each replica errs with probability at most 1/3 (conservative), so
        ``O(log(1/delta))`` replicas suffice by a Chernoff bound; the constant
        below keeps replica counts small for the deltas used in practice.
        """
        if not 0.0 < delta < 1.0:
            raise ParameterError("delta must be in (0, 1)")
        return max(1, int(math.ceil(2.0 * math.log(1.0 / delta))) | 1)

    def update(self, element: int, side: int) -> None:
        self._validate_side(side)
        for replica in self._replicas:
            replica.update(element, side)

    def update_all(self, elements: Iterable[int], side: int) -> None:
        elements = list(elements)
        for replica in self._replicas:
            replica.update_all(elements, side)

    def merge(self, other: "MedianEstimator") -> "MedianEstimator":
        if not isinstance(other, MedianEstimator) or other.num_replicas != self.num_replicas:
            raise ParameterError("cannot merge median estimators with different shapes")
        merged = MedianEstimator(self.seed, self.num_replicas, self._factory)
        merged._replicas = [
            mine.merge(theirs) for mine, theirs in zip(self._replicas, other._replicas)
        ]
        return merged

    def query(self) -> int:
        return int(statistics.median(replica.query() for replica in self._replicas))

    @property
    def size_bits(self) -> int:
        return sum(replica.size_bits for replica in self._replicas)

    def write_wire(self, writer) -> None:
        for replica in self._replicas:
            replica.write_wire(writer)

    def read_wire(self, reader) -> None:
        for replica in self._replicas:
            replica.read_wire(reader)
