"""A binary relational table with labeled columns and unlabeled rows."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.setsofsets import SetOfSets
from repro.errors import ParameterError


class BinaryTable:
    """A set of distinct binary rows over a fixed list of named columns.

    Rows are unlabeled (the table is a *set* of rows), matching the paper's
    database application.  Two tables over the same columns can be compared
    bit-by-bit, and a table converts losslessly to the
    :class:`~repro.core.setsofsets.SetOfSets` representation used by the
    reconciliation protocols.
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: Sequence[str], rows: Iterable[Iterable[int]] = ()) -> None:
        if len(set(columns)) != len(columns):
            raise ParameterError("column names must be unique")
        self._columns = tuple(columns)
        self._rows: set[frozenset[int]] = set()
        for row in rows:
            self.add_row(row)

    # -- schema ---------------------------------------------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        """The column names."""
        return self._columns

    @property
    def num_columns(self) -> int:
        """Number of columns (the element universe size ``u``)."""
        return len(self._columns)

    @property
    def num_rows(self) -> int:
        """Number of distinct rows (the paper's ``s``)."""
        return len(self._rows)

    def column_index(self, name: str) -> int:
        """Index of a column by name."""
        try:
            return self._columns.index(name)
        except ValueError as exc:
            raise ParameterError(f"unknown column {name!r}") from exc

    # -- rows -----------------------------------------------------------------------

    def add_row(self, ones: Iterable[int]) -> None:
        """Add a row given the indices of its 1-valued columns."""
        row = frozenset(ones)
        for column in row:
            if not 0 <= column < self.num_columns:
                raise ParameterError(f"column index {column} out of range")
        self._rows.add(row)

    def remove_row(self, ones: Iterable[int]) -> None:
        """Remove a row (no-op if absent)."""
        self._rows.discard(frozenset(ones))

    def rows(self) -> frozenset[frozenset[int]]:
        """The rows as sets of 1-column indices."""
        return frozenset(self._rows)

    def flip_bit(self, row: Iterable[int], column: int) -> frozenset[int]:
        """Flip one bit of one row in place; returns the updated row.

        This is the paper's unit of difference ("a total of d bits have been
        flipped").  The old row is removed and the modified row inserted.
        """
        old = frozenset(row)
        if old not in self._rows:
            raise ParameterError("row not present in the table")
        if not 0 <= column < self.num_columns:
            raise ParameterError(f"column index {column} out of range")
        new = old ^ frozenset({column})
        self._rows.discard(old)
        self._rows.add(new)
        return new

    # -- conversions -----------------------------------------------------------------

    def to_sets_of_sets(self) -> SetOfSets:
        """The set-of-sets view used by the reconciliation protocols."""
        return SetOfSets(self._rows)

    @classmethod
    def from_sets_of_sets(cls, columns: Sequence[str], parent: SetOfSets) -> "BinaryTable":
        """Rebuild a table from a reconciled set of sets."""
        return cls(columns, parent.children)

    def to_matrix(self) -> "np.ndarray":
        """Dense 0/1 matrix (rows in canonical order) -- convenient for tests."""
        ordered = sorted(self._rows, key=sorted)
        matrix = np.zeros((len(ordered), self.num_columns), dtype=np.uint8)
        for row_index, row in enumerate(ordered):
            for column in row:
                matrix[row_index, column] = 1
        return matrix

    @classmethod
    def from_matrix(cls, columns: Sequence[str], matrix: "np.ndarray") -> "BinaryTable":
        """Build a table from a dense 0/1 matrix."""
        if matrix.ndim != 2 or matrix.shape[1] != len(columns):
            raise ParameterError("matrix shape does not match the column list")
        rows = (set(np.nonzero(matrix[i])[0].tolist()) for i in range(matrix.shape[0]))
        return cls(columns, rows)

    # -- comparisons -----------------------------------------------------------------

    def bit_difference(self, other: "BinaryTable") -> int:
        """Minimum number of bit flips separating the two tables.

        Computed as the minimum-cost matching between row sets (rows are
        unlabeled), i.e. exactly the paper's ``d``.
        """
        from repro.core.setsofsets import minimum_matching_difference

        if other.columns != self.columns:
            raise ParameterError("tables must share the same columns")
        return minimum_matching_difference(self.to_sets_of_sets(), other.to_sets_of_sets())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryTable):
            return NotImplemented
        return self._columns == other._columns and self._rows == other._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryTable(columns={self.num_columns}, rows={self.num_rows})"
