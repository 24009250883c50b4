"""A light undirected simple graph.

Vertices are the integers ``0 .. n-1``.  The class carries exactly the
operations the reconciliation schemes need: adjacency queries, degree
sequences, canonical integer edge keys (so that a labeled graph is just a
set of integers, ready for plain set reconciliation), relabeling, and
conversion to/from :mod:`networkx` for interoperability and testing.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Sequence

from repro.errors import ParameterError


class Graph:
    """An undirected simple graph on vertices ``0 .. num_vertices - 1``."""

    __slots__ = ("_num_vertices", "_adjacency", "_num_edges")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if num_vertices < 0:
            raise ParameterError("num_vertices must be non-negative")
        self._num_vertices = num_vertices
        self._adjacency: list[set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        for u, v in edges:
            self.add_edge(u, v)

    # -- basic accessors -------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return self._num_edges

    def vertices(self) -> range:
        """Iterate the vertex ids."""
        return range(self._num_vertices)

    def neighbors(self, vertex: int) -> frozenset[int]:
        """The adjacency set of ``vertex``."""
        self._check_vertex(vertex)
        return frozenset(self._adjacency[vertex])

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex``."""
        self._check_vertex(vertex)
        return len(self._adjacency[vertex])

    def degree_sequence(self) -> list[int]:
        """Degrees of all vertices, indexed by vertex id."""
        return [len(adj) for adj in self._adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``{u, v}`` is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ``(min, max)`` pairs."""
        for u in range(self._num_vertices):
            for v in self._adjacency[u]:
                if u < v:
                    yield (u, v)

    # -- mutation --------------------------------------------------------------------

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._num_vertices:
            raise ParameterError(f"vertex {vertex} out of range [0, {self._num_vertices})")

    def add_edge(self, u: int, v: int) -> None:
        """Add the edge ``{u, v}`` (no-op if already present)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ParameterError("self-loops are not allowed in a simple graph")
        if v not in self._adjacency[u]:
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
            self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}`` (no-op if absent)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._adjacency[u]:
            self._adjacency[u].discard(v)
            self._adjacency[v].discard(u)
            self._num_edges -= 1

    def toggle_edge(self, u: int, v: int) -> None:
        """Flip the presence of the edge ``{u, v}`` (the paper's edge change)."""
        if self.has_edge(u, v):
            self.remove_edge(u, v)
        else:
            self.add_edge(u, v)

    def copy(self) -> "Graph":
        """Deep copy."""
        clone = Graph(self._num_vertices)
        clone._adjacency = [set(adj) for adj in self._adjacency]
        clone._num_edges = self._num_edges
        return clone

    # -- edge keys and relabeling -----------------------------------------------------

    def edge_key(self, u: int, v: int) -> int:
        """Canonical integer key of an (unordered) edge: ``min * n + max``."""
        self._check_vertex(u)
        self._check_vertex(v)
        low, high = (u, v) if u < v else (v, u)
        return low * self._num_vertices + high

    def edge_from_key(self, key: int) -> tuple[int, int]:
        """Inverse of :meth:`edge_key`."""
        return divmod(key, self._num_vertices)

    def edge_keys(self) -> set[int]:
        """All edges as canonical keys (the labeled-graph set representation)."""
        n = self._num_vertices
        return {
            u * n + v
            for u, adjacency in enumerate(self._adjacency)
            for v in adjacency
            if u < v
        }

    @property
    def edge_key_universe(self) -> int:
        """Upper bound (exclusive) on edge keys for this vertex count."""
        return self._num_vertices * self._num_vertices

    @classmethod
    def from_edge_keys(cls, num_vertices: int, keys: Iterable[int]) -> "Graph":
        """Rebuild a graph from canonical edge keys (duplicates count once).

        Raises :class:`ParameterError` for a key outside ``[0, n*n)`` or a
        self-loop key ``u*n + u``: recovered keys come from a peer.
        """
        graph = cls(num_vertices)
        keys = set(keys)
        limit = num_vertices * num_vertices
        if keys and (min(keys) < 0 or max(keys) >= limit):
            raise ParameterError(f"edge key out of range [0, {limit})")
        adjacency = graph._adjacency
        for u, v in map(divmod, keys, repeat(num_vertices)):
            if u == v:
                raise ParameterError("self-loops are not allowed in a simple graph")
            adjacency[u].add(v)
            adjacency[v].add(u)
        # Counted from the adjacency so a key and its mirror are one edge.
        graph._num_edges = sum(map(len, adjacency)) // 2
        return graph

    def relabel(self, mapping: Sequence[int]) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``mapping[v]``.

        ``mapping`` must be a permutation of ``0 .. n-1``.
        """
        if sorted(mapping) != list(range(self._num_vertices)):
            raise ParameterError("mapping must be a permutation of the vertex ids")
        relabeled = Graph(self._num_vertices)
        rename = mapping.__getitem__
        # A permutation keeps neighbors distinct and creates no self-loop.
        for vertex, adjacency in enumerate(self._adjacency):
            relabeled._adjacency[rename(vertex)] = set(map(rename, adjacency))
        relabeled._num_edges = self._num_edges
        return relabeled

    # -- comparisons and conversions ----------------------------------------------------

    def edge_difference(self, other: "Graph") -> int:
        """Number of edge slots on which the two (labeled) graphs disagree."""
        if other.num_vertices != self._num_vertices:
            raise ParameterError("graphs must have the same number of vertices")
        return len(self.edge_keys() ^ other.edge_keys())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_vertices == other._num_vertices
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:
        return hash((self._num_vertices, frozenset(self.edge_keys())))

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph`."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_vertices))
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Convert from a :class:`networkx.Graph` with integer-labelable nodes."""
        nodes = sorted(nx_graph.nodes())
        index = {node: position for position, node in enumerate(nodes)}
        graph = cls(len(nodes))
        for u, v in nx_graph.edges():
            if u != v:
                graph.add_edge(index[u], index[v])
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._num_vertices}, m={self._num_edges})"
