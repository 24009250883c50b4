"""The strata estimator of Eppstein et al. (baseline, reference [14]).

Elements are assigned to strata geometrically: an element lands in stratum
``i`` with probability ``2^{-(i+1)}`` (the number of trailing zeros of a
seeded hash).  Each stratum is a small fixed-size IBLT.  Elements of ``S1``
are inserted, elements of ``S2`` are deleted, so each stratum ends up
encoding a geometric sample of the symmetric difference.  To query, strata
are decoded from the deepest (sparsest) down; the count of recovered keys is
accumulated and scaled up by ``2^{i+1}`` at the first stratum that fails to
decode.  If every stratum decodes the estimate is exact.

The paper improves on this structure (its Theorem 3.1 estimator is a
``O(log u)`` factor smaller); we keep the strata estimator as the baseline
for the estimator ablation benchmark (experiment E5 in DESIGN.md).
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.estimator.base import SetDifferenceEstimator, sampled_level
from repro.hashing import Checksum, derive_seed
from repro.iblt import IBLT, IBLTParameters


class StrataEstimator(SetDifferenceEstimator):
    """Strata estimator backed by a hierarchy of small IBLTs.

    Parameters
    ----------
    seed:
        Shared seed; both parties must use the same one.
    num_strata:
        Number of strata (log of the largest difference the estimator can
        gauge; 32 covers any practical input in this library).
    cells_per_stratum:
        IBLT size per stratum.  The original paper uses 80; smaller values
        trade accuracy for size.
    key_bits:
        Width of the hashed element representatives stored in the strata.
    """

    def __init__(
        self,
        seed: int,
        num_strata: int = 32,
        cells_per_stratum: int = 40,
        key_bits: int = 64,
    ) -> None:
        if num_strata <= 0:
            raise ParameterError("num_strata must be positive")
        if cells_per_stratum < 8:
            raise ParameterError("cells_per_stratum must be at least 8")
        self.seed = seed
        self.num_strata = num_strata
        self.cells_per_stratum = cells_per_stratum
        self.key_bits = key_bits
        self._level_hash = Checksum(derive_seed(seed, "strata-level"), 64)
        self._key_hash = Checksum(derive_seed(seed, "strata-key"), key_bits)
        self._strata = [
            IBLT(
                IBLTParameters(
                    num_cells=cells_per_stratum,
                    key_bits=key_bits,
                    seed=derive_seed(seed, "strata-iblt", level),
                    num_hashes=3,
                    checksum_bits=24,
                    count_bits=16,
                )
            )
            for level in range(num_strata)
        ]

    # -- internal helpers -----------------------------------------------------------

    def _stratum_of(self, element: int) -> int:
        return sampled_level(self._level_hash.of_key(element), self.num_strata)

    def _representative(self, element: int) -> int:
        # Hash the element so arbitrary (wide) universes fit in key_bits,
        # and so that strata contents look uniform.
        return self._key_hash.of_key(element)

    def _check_compatible(self, other: "StrataEstimator") -> None:
        if (
            self.seed != other.seed
            or self.num_strata != other.num_strata
            or self.cells_per_stratum != other.cells_per_stratum
            or self.key_bits != other.key_bits
        ):
            raise ParameterError("cannot combine strata estimators with different parameters")

    # -- SetDifferenceEstimator interface ---------------------------------------------

    def update(self, element: int, side: int) -> None:
        self._validate_side(side)
        stratum = self._stratum_of(element)
        representative = self._representative(element)
        if side == 1:
            self._strata[stratum].insert(representative)
        else:
            self._strata[stratum].delete(representative)

    def update_all(self, elements, side: int) -> None:
        """Batch form of :meth:`update`: group by stratum, then one batch
        insert/delete per stratum IBLT (hits the cell store's scatter path)."""
        self._validate_side(side)
        grouped: dict[int, list[int]] = {}
        for element in elements:
            grouped.setdefault(self._stratum_of(element), []).append(
                self._representative(element)
            )
        for stratum, representatives in grouped.items():
            if side == 1:
                self._strata[stratum].insert_batch(representatives)
            else:
                self._strata[stratum].delete_batch(representatives)

    def merge(self, other: "StrataEstimator") -> "StrataEstimator":
        self._check_compatible(other)
        merged = StrataEstimator(
            self.seed, self.num_strata, self.cells_per_stratum, self.key_bits
        )
        merged._strata = [
            mine.merge(theirs) for mine, theirs in zip(self._strata, other._strata)
        ]
        return merged

    def query(self) -> int:
        total = 0
        for level in range(self.num_strata - 1, -1, -1):
            result = self._strata[level].try_decode()
            if not result.success:
                return max(1, total) * (1 << (level + 1))
            total += result.symmetric_difference_size()
        return total

    @property
    def size_bits(self) -> int:
        return sum(stratum.size_bits for stratum in self._strata)

    def write_wire(self, writer) -> None:
        for stratum in self._strata:
            writer.write(stratum.serialize(), stratum.size_bits)

    def read_wire(self, reader) -> None:
        self._strata = [
            IBLT.deserialize(stratum.params, reader.read(stratum.size_bits))
            for stratum in self._strata
        ]
