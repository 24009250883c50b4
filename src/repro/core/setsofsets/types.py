"""The parent/child set-of-sets representation.

A :class:`SetOfSets` is an immutable collection of *distinct* child sets of
non-negative integer elements.  It records the parameters the paper's bounds
are stated in: ``s`` (number of child sets), ``h`` (largest child set) and
``n`` (total number of elements).  :class:`FlatSetOfSets` is the same parent
as one flat batch, the form the set-of-sets encoders read.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as _np

from repro.hashing.mix import checked_keys
from repro.iblt.multi import FlatChildren


class SetOfSets:
    """An immutable set of child sets.

    Parameters
    ----------
    children:
        Any iterable of iterables of non-negative integers.  Duplicate child
        sets are collapsed (use
        :class:`repro.core.setsofsets.nested.MultisetOfMultisets` when
        multiplicities matter).
    """

    __slots__ = ("_children",)

    def __init__(self, children: Iterable[Iterable[int]]) -> None:
        frozen = frozenset(frozenset(child) for child in children)
        checked_keys(chain.from_iterable(frozen), "child set elements", array_above=None)
        self._children = frozen

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def empty(cls) -> "SetOfSets":
        """A parent set with no children."""
        return cls(())

    # -- parameters of the paper's bounds ---------------------------------------------

    @property
    def children(self) -> frozenset[frozenset[int]]:
        """The child sets (unordered, distinct)."""
        return self._children

    @property
    def num_children(self) -> int:
        """The paper's ``s``: number of child sets."""
        return len(self._children)

    @property
    def max_child_size(self) -> int:
        """The paper's ``h``: size of the largest child set (0 if empty)."""
        return max((len(child) for child in self._children), default=0)

    @property
    def total_elements(self) -> int:
        """The paper's ``n``: sum of the child set sizes."""
        return sum(len(child) for child in self._children)

    @property
    def universe_upper_bound(self) -> int:
        """One more than the largest element present (a lower bound on ``u``)."""
        largest = max((max(child) for child in self._children if child), default=0)
        return largest + 1

    # -- iteration and ordering ---------------------------------------------------------

    def sorted_children(self) -> list[frozenset[int]]:
        """Children in a canonical (deterministic) order."""
        return sorted(self._children, key=lambda child: sorted(child))

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.sorted_children())

    def __len__(self) -> int:
        return len(self._children)

    def __contains__(self, child: Iterable[int]) -> bool:
        return frozenset(child) in self._children

    # -- algebra ----------------------------------------------------------------------

    def replace_children(
        self, to_remove: Iterable[Iterable[int]], to_add: Iterable[Iterable[int]]
    ) -> "SetOfSets":
        """Return a copy with some children removed and others added.

        This is how the protocols build Bob's reconstruction: remove his
        differing children ``D_B`` and add Alice's recovered children ``D_A``.
        """
        removed = {frozenset(child) for child in to_remove}
        # Only the added children are new: validate those, keep the rest.
        result = SetOfSets(to_add)
        result._children = (self._children - removed) | result._children
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetOfSets):
            return NotImplemented
        return self._children == other._children

    def __hash__(self) -> int:
        return hash(self._children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetOfSets(s={self.num_children}, h={self.max_child_size}, "
            f"n={self.total_elements})"
        )


class FlatSetOfSets(FlatChildren):
    """A parent set as one flat batch: its distinct children in the
    canonical order of :meth:`SetOfSets.sorted_children`, each row
    ascending (the :class:`~repro.iblt.multi.FlatChildren` the cascade's
    encoders read).

    It answers what a party asks of its own parent in O(d) Python steps:
    membership is a binary search over the canonical rows, and
    :meth:`replace_children` one gather, so frozensets are built only for
    the children asked about.  Built once per party per session; nothing
    keeps it on the :class:`SetOfSets` it came from.
    """

    @classmethod
    def of(cls, parent: SetOfSets) -> "FlatSetOfSets":
        """``parent``'s children, flattened in canonical order."""
        return cls.from_checked_rows(sorted(map(sorted, parent.children)))

    # -- what a party asks of its own parent ---------------------------------------------

    @property
    def children(self) -> frozenset[frozenset[int]]:
        """Every child as a frozenset (O(n): for callers that want them all)."""
        return frozenset(map(frozenset, self.rows))

    def child(self, index: int) -> frozenset[int]:
        """Child ``index`` of the canonical order."""
        return frozenset(self.row(index))

    def _position(self, row: list[int]) -> int:
        """Where the ascending ``row`` sits among the canonical rows."""
        low, high = 0, self.num_children
        while low < high:
            middle = (low + high) // 2
            if self.row(middle) < row:
                low = middle + 1
            else:
                high = middle
        return low

    def index(self, child: Iterable[int]) -> int | None:
        """The canonical index of ``child``, or ``None`` when it is absent."""
        row = sorted(child)
        position = self._position(row)
        if position < self.num_children and self.row(position) == row:
            return position
        return None

    def __contains__(self, child: Iterable[int]) -> bool:
        return self.index(child) is not None

    def replace_children(
        self, to_remove: Iterable[Iterable[int]], to_add: Iterable[Iterable[int]]
    ) -> "FlatSetOfSets":
        """:meth:`SetOfSets.replace_children` on the batch: the removed
        children dropped, then the added ones merged in at their canonical
        places, one already present kept once."""
        keep = _np.ones(self.num_children, dtype=bool)
        for child in to_remove:
            index = self.index(child)
            if index is not None:
                keep[index] = False
        # Checked before they are sorted: the added children may be a peer's.
        added_rows = FlatChildren([list(child) for child in to_add]).rows
        new_rows, positions = [], []
        for row in map(list, sorted(set(tuple(sorted(row)) for row in added_rows))):
            position = self._position(row)
            if position < self.num_children and self.row(position) == row:
                keep[position] = True
            else:
                new_rows.append(row)
                positions.append(position)
        added = FlatChildren.from_checked_rows(new_rows)
        if self.elements is None or added.elements is None:  # an element past 64 bits
            rows = [row for row, kept in zip(self.rows, keep.tolist()) if kept]
            return type(self).from_checked_rows(sorted(rows + new_rows))
        # A new row sorts before the kept row at its position, and the new
        # rows are in canonical order among themselves: one stable sort.
        kept_rows = _np.flatnonzero(keep)
        places = _np.concatenate([2 * kept_rows + 1, 2 * _np.array(positions, dtype=_np.int64)])
        order = _np.argsort(places, kind="stable")
        sizes = _np.concatenate([self.sizes[kept_rows], added.sizes])
        starts = _np.cumsum(sizes) - sizes
        elements = _np.concatenate([self.elements[_np.repeat(keep, self.sizes)], added.elements])
        sizes = sizes[order]
        gather = _np.repeat(starts[order] - (_np.cumsum(sizes) - sizes), sizes)
        return type(self).from_arrays(elements[gather + _np.arange(gather.size)], sizes)
