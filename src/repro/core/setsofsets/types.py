"""The parent/child set-of-sets representation.

A :class:`SetOfSets` is an immutable collection of *distinct* child sets of
non-negative integer elements.  It records the parameters the paper's bounds
are stated in: ``s`` (number of child sets), ``h`` (largest child set) and
``n`` (total number of elements).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from repro.hashing.mix import checked_keys


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
