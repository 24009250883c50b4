"""Rooted forests and forest reconciliation (Section 6, Theorem 6.1).

A rooted forest is stored as a parent array.  The reconciliation scheme:

1.  Every vertex gets an AHU-style signature: a Theta(log n)-bit hash of the
    sorted signatures of its children (leaves hash a constant).  The
    signature identifies the isomorphism class of the subtree it roots.
2.  Every vertex contributes one *child multiset*: its own signature with a
    parent marker, together with the signatures of its children.  The
    collection of these multisets (a multiset of multisets, since isomorphic
    subtrees repeat) determines the forest up to isomorphism.
3.  A single edge edit only changes the signatures of the at most ``sigma``
    ancestors of the edited vertex (``sigma`` = maximum tree depth), so at
    most ``O(d * sigma)`` element changes separate the two collections; the
    multiset-of-multisets reconciliation of Section 3.4 transfers them.
4.  Bob reconstructs Alice's forest from the recovered collection: vertices
    are grouped by signature, and the edge signatures attached to a repeated
    signature divide evenly among its copies.

This module holds the forest type, the signatures and the reconstruction;
the protocol is ``forest_parties`` in :mod:`repro.protocols.parties.graphs`,
run by ``repro.reconcile(alice, bob, protocol="forest", ...)``.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Sequence

from repro.core.setsofsets.nested import MultisetOfMultisets
from repro.errors import ParameterError
from repro.hashing import SeededHasher, derive_seed, int_to_bytes

#: Width of every AHU signature: 48 bits keep two of a forest's ``n``
#: subtree classes from colliding except with probability about
#: ``n**2 / 2**49`` (under 2e-7 at ``n = 10**4``), in one machine word.
SIGNATURE_BITS = 48


class RootedForest:
    """A forest of rooted trees over vertices ``0 .. n-1`` stored as a parent array."""

    __slots__ = ("_parents",)

    def __init__(self, parents: Sequence[int | None]) -> None:
        self._parents = list(parents)
        n = len(self._parents)
        for vertex, parent in enumerate(self._parents):
            if parent is None:
                continue
            if not 0 <= parent < n or parent == vertex:
                raise ParameterError(f"invalid parent {parent} for vertex {vertex}")
        if self._has_cycle():
            raise ParameterError("parent array contains a cycle")

    def _has_cycle(self) -> bool:
        state = [0] * len(self._parents)  # 0 unvisited, 1 in progress, 2 done
        for start in range(len(self._parents)):
            vertex = start
            path = []
            while vertex is not None and state[vertex] == 0:
                state[vertex] = 1
                path.append(vertex)
                vertex = self._parents[vertex]
            if vertex is not None and state[vertex] == 1:
                return True
            for visited in path:
                state[visited] = 2
        return False

    # -- basic accessors -------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._parents)

    def parent(self, vertex: int) -> int | None:
        """Parent of ``vertex`` (``None`` for roots)."""
        return self._parents[vertex]

    def roots(self) -> list[int]:
        """All root vertices."""
        return [v for v, parent in enumerate(self._parents) if parent is None]

    def children_lists(self) -> list[list[int]]:
        """Children of every vertex, indexed by vertex id."""
        children: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for vertex, parent in enumerate(self._parents):
            if parent is not None:
                children[parent].append(vertex)
        return children

    def children(self, vertex: int) -> list[int]:
        """Children of one vertex."""
        return [v for v, parent in enumerate(self._parents) if parent == vertex]

    def edges(self) -> list[tuple[int, int]]:
        """Directed edges as ``(parent, child)`` pairs."""
        return [
            (parent, vertex)
            for vertex, parent in enumerate(self._parents)
            if parent is not None
        ]

    def depths(self) -> list[int]:
        """Depth of every vertex (roots have depth 0)."""
        children = self.children_lists()
        depth = [0] * self.num_vertices
        queue = deque(self.roots())
        while queue:
            vertex = queue.popleft()
            for child in children[vertex]:
                depth[child] = depth[vertex] + 1
                queue.append(child)
        return depth

    @property
    def max_depth(self) -> int:
        """The paper's ``sigma``: maximum depth of any tree in the forest."""
        return max(self.depths(), default=0)

    def copy(self) -> "RootedForest":
        """Deep copy."""
        return RootedForest(list(self._parents))

    # -- the paper's edit operations ----------------------------------------------------

    def delete_edge(self, child: int) -> None:
        """Delete the edge above ``child``; the child becomes a new root."""
        if self._parents[child] is None:
            raise ParameterError(f"vertex {child} is already a root")
        self._parents[child] = None

    def insert_edge(self, parent: int, child: int) -> None:
        """Attach root ``child`` under ``parent`` (the paper's insertion rule)."""
        if self._parents[child] is not None:
            raise ParameterError("the child of an inserted edge must currently be a root")
        ancestor = parent
        while ancestor is not None:
            if ancestor == child:
                raise ParameterError("insertion would create a cycle")
            ancestor = self._parents[ancestor]
        self._parents[child] = parent

    # -- comparisons -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedForest):
            return NotImplemented
        return self._parents == other._parents

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootedForest(n={self.num_vertices}, roots={len(self.roots())})"


# ---------------------------------------------------------------------------
# Canonical forms and signatures
# ---------------------------------------------------------------------------


def _bottom_up_order(forest: RootedForest) -> list[int]:
    """Vertices ordered so every child precedes its parent."""
    depth = forest.depths()
    return sorted(range(forest.num_vertices), key=lambda v: -depth[v])


def forest_canonical_form(forest: RootedForest) -> tuple[str, ...]:
    """Exact AHU canonical form: the sorted tuple of the root trees' labels.

    Two forests are isomorphic (as rooted forests) exactly when their
    canonical forms are equal.  Used by tests and by callers who want a
    collision-free certificate; the protocol itself uses hashed signatures.
    """
    children = forest.children_lists()
    labels = [""] * forest.num_vertices
    for vertex in _bottom_up_order(forest):
        child_labels = sorted(labels[child] for child in children[vertex])
        labels[vertex] = "(" + "".join(child_labels) + ")"
    return tuple(sorted(labels[root] for root in forest.roots()))


def ahu_signatures(forest: RootedForest, seed: int) -> list[int]:
    """Hashed AHU signatures of every vertex (the paper's vertex signatures).

    ``signatures[v]`` is a :data:`SIGNATURE_BITS`-wide hash of the sorted list of
    the children's signatures (leaves hash the empty list), so it identifies
    the isomorphism class of the subtree rooted at ``v`` up to hash
    collisions.
    """
    hasher = SeededHasher(derive_seed(seed, "ahu-signature"), SIGNATURE_BITS)
    children = forest.children_lists()
    signatures = [0] * forest.num_vertices
    for vertex in _bottom_up_order(forest):
        child_signatures = sorted(signatures[child] for child in children[vertex])
        payload = b"".join(int_to_bytes(s, 8) for s in child_signatures)
        signatures[vertex] = hasher.hash_bytes(payload)
    return signatures


# ---------------------------------------------------------------------------
# Reconciliation (Theorem 6.1): collection transform and reconstruction
# ---------------------------------------------------------------------------


def _edge_multisets(forest: RootedForest, signatures: Sequence[int]) -> MultisetOfMultisets:
    """The per-vertex child multisets: tagged own signature plus child signatures."""
    parent_tag = 1 << SIGNATURE_BITS
    children = forest.children_lists()
    multisets: list[list[int]] = []
    for vertex in range(forest.num_vertices):
        entry = [parent_tag | signatures[vertex]]
        entry.extend(signatures[child] for child in children[vertex])
        multisets.append(entry)
    return MultisetOfMultisets(multisets)


def _reconstruct_forest(collection: MultisetOfMultisets) -> RootedForest | None:
    """Rebuild a forest (up to isomorphism) from the per-vertex child multisets."""
    parent_tag = 1 << SIGNATURE_BITS
    vertex_count: Counter = Counter()
    children_of: dict[int, Counter] = {}
    child_usage: Counter = Counter()
    for multiset, multiplicity in collection:
        tagged = [value for value in multiset if value >= parent_tag]
        plain = [value for value in multiset if value < parent_tag]
        if len(tagged) != 1:
            return None
        signature = tagged[0] ^ parent_tag
        vertex_count[signature] += multiplicity
        child_counter = Counter(plain)
        existing = children_of.get(signature)
        if existing is not None and existing != child_counter:
            return None  # hash collision: two distinct subtrees share a signature
        children_of[signature] = child_counter
        for child_signature, count in child_counter.items():
            child_usage[child_signature] += count * multiplicity

    root_counts = {
        signature: vertex_count[signature] - child_usage.get(signature, 0)
        for signature in vertex_count
    }
    if any(count < 0 for count in root_counts.values()):
        return None
    total_vertices = sum(vertex_count.values())
    parents: list[int | None] = []

    def build(signature: int, parent_index: int | None) -> bool:
        stack: list[tuple[int, int | None]] = [(signature, parent_index)]
        while stack:
            sig, parent_idx = stack.pop()
            if len(parents) >= total_vertices:
                return False  # more vertices implied than the collection contains
            vertex_index = len(parents)
            parents.append(parent_idx)
            child_counter = children_of.get(sig)
            if child_counter is None:
                return False  # a child signature with no corresponding vertex entry
            for child_signature, count in child_counter.items():
                for _ in range(count):
                    stack.append((child_signature, vertex_index))
        return True

    for signature, count in sorted(root_counts.items()):
        for _ in range(count):
            if not build(signature, None):
                return None
    if len(parents) != total_vertices:
        return None
    return RootedForest(parents)
