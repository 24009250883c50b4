"""Sets of multisets and multisets of multisets (Section 3.4).

The graph applications need nested multisets: the degree-neighborhood scheme
of Section 5.2 reconciles a *set of multisets* (each vertex signature is a
multiset of neighbor degrees) and forest reconciliation (Section 6)
reconciles a *multiset of multisets* (several vertices can root isomorphic
subtrees).  Following the paper, multiplicities are folded into ordinary set
elements -- an element ``x`` occurring ``k`` times becomes the pair
``(x, k)`` -- after which any set-of-sets protocol applies unchanged.  The
universe grows accordingly, and a single multiplicity change counts as two
encoded-element changes, which only affects constants.

Because the encoded parent is an ordinary :class:`SetOfSets`, nested
reconciliation routes through the batched child-sketch pipeline for free:
the cascading protocol builds every encoded child's sketch through
:class:`~repro.iblt.multi.IBLTArray` in one flat pass per level.

This module holds the types and the encoding; the protocol itself (Theorem
3.11) is the party pair in :mod:`repro.protocols.parties.setsofsets`, and
:func:`reconcile_multisets_of_multisets` runs it over a default
(serializing) session (Theorem 3.11 has no registered protocol name of its
own).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.comm import ReconciliationResult
from repro.core.setrecon.multiset import decode_multiset, encode_multiset
from repro.core.setsofsets.types import SetOfSets
from repro.errors import ParameterError


class MultisetOfMultisets:
    """An immutable multiset of child multisets.

    Children are canonicalised as sorted tuples of their elements (with
    repetition); the parent stores each distinct child with a positive
    multiplicity.
    """

    __slots__ = ("_children",)

    def __init__(self, children: Iterable[Iterable[int]]) -> None:
        counter: Counter[tuple[int, ...]] = Counter()
        for child in children:
            canonical = tuple(sorted(child))
            if any(not isinstance(element, int) or element < 0 for element in canonical):
                raise ParameterError("child multiset elements must be non-negative integers")
            counter[canonical] += 1
        self._children = dict(counter)

    @classmethod
    def from_counts(cls, counts: dict[tuple[int, ...], int]) -> "MultisetOfMultisets":
        """Build directly from a ``{canonical child: multiplicity}`` mapping."""
        instance = cls(())
        validated = {}
        for child, multiplicity in counts.items():
            if multiplicity <= 0:
                raise ParameterError("child multiplicities must be positive")
            validated[tuple(sorted(child))] = multiplicity
        instance._children = validated
        return instance

    # -- parameters -------------------------------------------------------------------

    @property
    def children(self) -> dict[tuple[int, ...], int]:
        """Mapping from canonical child tuple to multiplicity."""
        return dict(self._children)

    @property
    def num_children(self) -> int:
        """Total number of children, counting multiplicity."""
        return sum(self._children.values())

    @property
    def num_distinct_children(self) -> int:
        """Number of distinct child multisets."""
        return len(self._children)

    @property
    def max_child_size(self) -> int:
        """Largest child size (with repetition)."""
        return max((len(child) for child in self._children), default=0)

    @property
    def total_elements(self) -> int:
        """Total elements across all children, counting every multiplicity."""
        return sum(len(child) * mult for child, mult in self._children.items())

    @property
    def max_element_multiplicity(self) -> int:
        """Largest multiplicity of any element inside any child."""
        best = 1
        for child in self._children:
            if child:
                best = max(best, max(Counter(child).values()))
        return best

    @property
    def max_parent_multiplicity(self) -> int:
        """Largest multiplicity of any child in the parent."""
        return max(self._children.values(), default=1)

    # -- iteration and equality ---------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(sorted(self._children.items()))

    def __len__(self) -> int:
        return len(self._children)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultisetOfMultisets):
            return NotImplemented
        return self._children == other._children

    def __hash__(self) -> int:
        return hash(frozenset(self._children.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultisetOfMultisets(children={self.num_children}, "
            f"distinct={self.num_distinct_children})"
        )


# ---------------------------------------------------------------------------
# Encoding into plain sets of sets
# ---------------------------------------------------------------------------


def _pair_universe(universe_size: int, element_multiplicity_bound: int) -> int:
    return universe_size * (element_multiplicity_bound + 1) + element_multiplicity_bound + 1


def encode_multiset_children(
    parent: MultisetOfMultisets,
    universe_size: int,
    element_multiplicity_bound: int,
    parent_multiplicity_bound: int,
) -> SetOfSets:
    """Encode a multiset of multisets as a plain :class:`SetOfSets`.

    Every child multiset becomes the set of its ``(element, count)`` pair
    encodings plus one reserved *tag* element recording the child's
    multiplicity in the parent.
    """
    if element_multiplicity_bound < parent.max_element_multiplicity:
        raise ParameterError("element_multiplicity_bound too small for this parent")
    if parent_multiplicity_bound < parent.max_parent_multiplicity:
        raise ParameterError("parent_multiplicity_bound too small for this parent")
    tag_base = _pair_universe(universe_size, element_multiplicity_bound)
    encoded_children = []
    for child, multiplicity in parent:
        counts = dict(Counter(child))
        encoded = (
            encode_multiset(counts, element_multiplicity_bound) if counts else set()
        )
        encoded.add(tag_base + multiplicity)
        encoded_children.append(encoded)
    return SetOfSets(encoded_children)


def decode_multiset_children(
    encoded: SetOfSets,
    universe_size: int,
    element_multiplicity_bound: int,
) -> MultisetOfMultisets:
    """Inverse of :func:`encode_multiset_children`."""
    tag_base = _pair_universe(universe_size, element_multiplicity_bound)
    counts: dict[tuple[int, ...], int] = {}
    for child in encoded:
        tags = [value for value in child if value >= tag_base]
        if len(tags) != 1:
            raise ParameterError("encoded child is missing its multiplicity tag")
        multiplicity = tags[0] - tag_base
        pairs = {value for value in child if value < tag_base}
        element_counts = decode_multiset(pairs, element_multiplicity_bound)
        flattened: list[int] = []
        for element, count in sorted(element_counts.items()):
            flattened.extend([element] * count)
        key = tuple(flattened)
        counts[key] = counts.get(key, 0) + multiplicity
    return MultisetOfMultisets.from_counts(counts) if counts else MultisetOfMultisets(())


def encoded_universe_size(
    universe_size: int,
    element_multiplicity_bound: int,
    parent_multiplicity_bound: int,
) -> int:
    """Universe size of the encoded representation (pairs plus tags)."""
    return _pair_universe(universe_size, element_multiplicity_bound) + parent_multiplicity_bound + 1


# ---------------------------------------------------------------------------
# End-to-end reconciliation of multisets of multisets
# ---------------------------------------------------------------------------


def reconcile_multisets_of_multisets(
    alice: MultisetOfMultisets,
    bob: MultisetOfMultisets,
    difference_bound: int,
    universe_size: int,
    seed: int,
    *,
    element_multiplicity_bound: int | None = None,
    parent_multiplicity_bound: int | None = None,
) -> ReconciliationResult:
    """Reconcile two multisets of multisets (one-way, Bob recovers Alice's).

    Thin wrapper over the party pair of
    :mod:`repro.protocols.parties.setsofsets` (default session), which runs
    the cascading protocol of Theorem 3.7 on the encoded parents.

    Parameters
    ----------
    alice, bob:
        The two parents.
    difference_bound:
        Bound on the number of element insertions/deletions separating the
        parents (the paper's ``d``); internally doubled because one multiset
        change touches two encoded pairs.
    universe_size:
        Universe of the underlying elements.
    element_multiplicity_bound, parent_multiplicity_bound:
        Bounds on multiplicities; default to what the two inputs exhibit.
    """
    from repro.protocols.parties.setsofsets import multisets_of_multisets_parties
    from repro.protocols.session import run_session

    alice_party, bob_party = multisets_of_multisets_parties(
        alice,
        bob,
        difference_bound,
        universe_size,
        seed,
        element_multiplicity_bound=element_multiplicity_bound,
        parent_multiplicity_bound=parent_multiplicity_bound,
    )
    return run_session(alice_party, bob_party)
