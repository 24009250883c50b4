"""A light undirected simple graph, stored as one bitset row per vertex.

Vertices are the integers ``0 .. n-1``.  ``_rows[v]`` is a Python int whose
bit ``w`` is set when the edge ``{v, w}`` exists: the adjacency matrix in
n²/8 bytes, so adjacency queries, degrees and edge toggles are O(1) int
operations.  The class carries exactly the operations the reconciliation
schemes need: adjacency queries, degree sequences, canonical integer edge
keys (so that a labeled graph is just a set of integers, ready for plain set
reconciliation), relabeling, and conversion to/from :mod:`networkx` for
interoperability and testing.

The bulk transforms -- edge keys to and from the rows, relabeling, the
anchor matrix of the degree-ordering scheme -- unpack the rows into a 0/1
matrix and work on arrays (a permutation gather, ``np.divmod`` with
vectorised range and self-loop checks, packing back to rows); the rows stay
the one stored form.  The rows cost n²/8 bytes whatever the edge count,
which suits the paper's dense G(n, p); the transforms unpack them a block of
rows at a time, so their transient matrices stay near 4 MiB at any n
instead of taking n² bytes.
"""

from __future__ import annotations

import operator
import re
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as _np

from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx

_ONE = re.compile("1")


def _members(row: int) -> list[int]:
    """The positions of the set bits of ``row``, ascending: the binary
    digits, lowest first, scanned in C."""
    return [match.start() for match in _ONE.finditer(bin(row)[:1:-1])]


def _index(value: Any, what: str) -> int:
    """``value`` as a Python int: any integer, a NumPy integer scalar
    included, but never a ``bool``."""
    if isinstance(value, bool):
        raise ParameterError(f"{what} {value!r} is not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{what} {value!r} is not an integer") from None


def _as_ints(values: Iterable[Any], what: str) -> list[int]:
    """``values`` as a list of Python ints (see :func:`_index`): exact-int
    lists are settled in one C-level pass, anything else pays the loop."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    return [_index(value, what) for value in values]


def _permutation(mapping: Sequence[int] | Any, num_vertices: int) -> Any:
    """``mapping`` as an ``intp`` array, checked to be a permutation of
    ``0 .. num_vertices - 1``: an integer NumPy array, or integers as
    :func:`_as_ints` takes them."""
    if isinstance(mapping, _np.ndarray) and mapping.dtype.kind in "ui":
        array = mapping.astype(_np.intp, copy=False)
        valid = array.shape == (num_vertices,) and bool(
            (_np.sort(array) == _np.arange(num_vertices)).all()
        )
    else:
        values = _as_ints(mapping, "mapping entry")
        valid = sorted(values) == list(range(num_vertices))
        array = _np.array(values if valid else [], dtype=_np.intp)
    if not valid:
        raise ParameterError("mapping must be a permutation of the vertex ids")
    return array


#: Bits the bulk transforms unpack at once, about 4 MiB of ``bool``: one
#: n-by-n matrix would take n² bytes, eight times the rows.
_BLOCK_BITS = 1 << 22


def _row_blocks(num_rows: int, width: int) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` spans of ``num_rows`` rows of ``width`` bits, each
    at most :data:`_BLOCK_BITS` bits (at least one row)."""
    step = max(1, _BLOCK_BITS // max(width, 1))
    for start in range(0, num_rows, step):
        yield start, min(start + step, num_rows)


def _bit_matrix(rows: Sequence[int], width: int) -> Any:
    """``rows`` as a ``(len(rows), width)`` ``bool`` matrix: bit ``w`` of
    ``rows[i]`` at ``[i, w]``."""
    num_bytes = (width + 7) // 8
    data = b"".join([row.to_bytes(num_bytes, "little") for row in rows])
    packed = _np.frombuffer(data, dtype=_np.uint8).reshape(len(rows), num_bytes)
    return _np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


def _rows_of(matrix: Any) -> list[int]:
    """The inverse of :func:`_bit_matrix`: one int per row of a bool matrix."""
    packed = _np.packbits(matrix, axis=1, bitorder="little")
    num_bytes = packed.shape[1]
    if num_bytes == 0:  # zero-width rows (n = 0) hold nothing
        return [0] * packed.shape[0]
    if num_bytes <= 8:  # a row in one little-endian uint64: a signature mask
        limbs = _np.zeros((packed.shape[0], 8), dtype=_np.uint8)
        limbs[:, :num_bytes] = packed
        return limbs.view("<u8").ravel().tolist()
    data = packed.tobytes()
    return [
        int.from_bytes(data[start : start + num_bytes], "little")
        for start in range(0, len(data), num_bytes)
    ]


def _rows_from_key_array(num_vertices: int, keys: Any) -> list[int]:
    """The rows of :meth:`Graph.from_edge_keys` (``uint64`` keys, range-checked)."""
    low, high = _np.divmod(keys, _np.uint64(max(num_vertices, 1)))
    if (low == high).any():
        raise ParameterError("self-loops are not allowed in a simple graph")
    # Both orientations as flat indices into a bit matrix with byte-aligned
    # rows: a mirrored or repeated key sets the same bit again.
    width = 8 * ((num_vertices + 7) // 8)
    flat = _np.concatenate(
        [low * _np.uint64(width) + high, high * _np.uint64(width) + low]
    )
    rows: list[int] = []
    for start, stop in _row_blocks(num_vertices, width):
        first, last = start * width, stop * width
        if stop - start < num_vertices:  # one block of several: its bits only
            block = flat[(flat >= first) & (flat < last)] - _np.uint64(first)
        else:
            block = flat
        bits = _np.zeros(last - first, dtype=bool)
        bits[block] = True
        rows.extend(_rows_of(bits.reshape(stop - start, width)))
    return rows


class Graph:
    """An undirected simple graph on vertices ``0 .. num_vertices - 1``."""

    __slots__ = ("_num_vertices", "_rows", "_num_edges")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if num_vertices < 0:
            raise ParameterError("num_vertices must be non-negative")
        self._num_vertices = num_vertices
        self._rows: list[int] = [0] * num_vertices
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
        return frozenset(_members(self._rows[self._vertex(vertex)]))

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex``."""
        return self._rows[self._vertex(vertex)].bit_count()

    def degree_sequence(self) -> list[int]:
        """Degrees of all vertices, indexed by vertex id.

        One ``bit_count`` per row: at n = 300 it is faster than unpacking
        the rows into an array.
        """
        return [row.bit_count() for row in self._rows]

    def has_edge(self, u: int, v: int) -> bool:
        """True if the edge ``{u, v}`` is present."""
        return self._rows[self._vertex(u)] >> self._vertex(v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ``(min, max)`` pairs."""
        for u, row in enumerate(self._rows):
            for offset in _members(row >> (u + 1)):
                yield (u, u + 1 + offset)

    def _vertex_ids(self, values: Iterable[Any], what: str) -> list[int]:
        """``values`` as Python ints (see :func:`_as_ints`), all vertex ids."""
        ids = _as_ints(values, what)
        if ids and (min(ids) < 0 or max(ids) >= self._num_vertices):
            raise ParameterError("anchors and vertices must be vertex ids")
        return ids

    def anchor_matrix(self, anchors: Sequence[int], vertices: Sequence[int]) -> Any:
        """A ``(len(vertices), len(anchors))`` ``bool`` matrix whose ``[i, j]``
        is set when ``vertices[i]`` is adjacent to ``anchors[j]``: with the
        top-degree vertices as anchors, its rows are the degree-ordering
        signatures (Section 5.1) as bit strings.

        Only the anchors' rows are read: ``len(anchors)`` rows, not n.
        """
        anchors = self._vertex_ids(anchors, "anchor")
        vertices = self._vertex_ids(vertices, "vertex")
        matrix = _np.empty((len(vertices), len(anchors)), dtype=bool)
        for start, stop in _row_blocks(len(anchors), self._num_vertices):
            block = _bit_matrix(
                [self._rows[anchor] for anchor in anchors[start:stop]], self._num_vertices
            )
            matrix[:, start:stop] = block[:, vertices].T
        return matrix

    def neighbors_among(
        self, anchors: Sequence[int], vertices: Sequence[int]
    ) -> list[frozenset[int]]:
        """For each of ``vertices``, its neighbors among ``anchors`` as indices
        into ``anchors``; with every vertex as an anchor, each vertex's
        neighbor set.

        :meth:`anchor_matrix` a block of anchors at a time, so the transient
        matrix stays near :data:`_BLOCK_BITS` even with n anchors.
        """
        anchors = self._vertex_ids(anchors, "anchor")
        vertices = self._vertex_ids(vertices, "vertex")
        owners = [_np.empty(0, dtype=_np.intp)]
        indices = [_np.empty(0, dtype=_np.intp)]
        for start, stop in _row_blocks(len(anchors), self._num_vertices):
            # Row-major nonzero: indices grouped by vertex.
            block_owners, block_indices = _np.nonzero(
                self.anchor_matrix(anchors[start:stop], vertices)
            )
            owners.append(block_owners)
            indices.append(block_indices + start)
        # A stable sort regroups the blocks by vertex, each group ascending.
        owner = _np.concatenate(owners)
        flat = _np.concatenate(indices)[_np.argsort(owner, kind="stable")].tolist()
        counts = _np.bincount(owner, minlength=len(vertices)).tolist()
        signatures = []
        start = 0
        for count in counts:
            signatures.append(frozenset(flat[start : start + count]))
            start += count
        return signatures

    # -- mutation --------------------------------------------------------------------

    def _vertex(self, vertex: Any) -> int:
        """``vertex`` as a Python int (see :func:`_index`), range-checked."""
        if type(vertex) is not int:
            vertex = _index(vertex, "vertex")
        if not 0 <= vertex < self._num_vertices:
            raise ParameterError(f"vertex {vertex} out of range [0, {self._num_vertices})")
        return vertex

    def add_edge(self, u: int, v: int) -> None:
        """Add the edge ``{u, v}`` (no-op if already present)."""
        u, v = self._vertex(u), self._vertex(v)
        if u == v:
            raise ParameterError("self-loops are not allowed in a simple graph")
        rows = self._rows
        if not rows[u] >> v & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            self._num_edges += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge ``{u, v}`` (no-op if absent)."""
        u, v = self._vertex(u), self._vertex(v)
        rows = self._rows
        if rows[u] >> v & 1:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            self._num_edges -= 1

    def toggle_edge(self, u: int, v: int) -> None:
        """Flip the presence of the edge ``{u, v}`` (the paper's edge change)."""
        if self.has_edge(u, v):
            self.remove_edge(u, v)
        else:
            self.add_edge(u, v)

    def copy(self) -> "Graph":
        """Deep copy."""
        return Graph._of_rows(list(self._rows), self._num_edges)

    @classmethod
    def _of_rows(cls, rows: list[int], num_edges: int) -> "Graph":
        """The graph whose rows are ``rows`` (symmetric, zero diagonal)."""
        graph = cls.__new__(cls)
        graph._num_vertices = len(rows)
        graph._rows = rows
        graph._num_edges = num_edges
        return graph

    # -- edge keys and relabeling -----------------------------------------------------

    def edge_key(self, u: int, v: int) -> int:
        """Canonical integer key of an (unordered) edge: ``min * n + max``."""
        u, v = self._vertex(u), self._vertex(v)
        low, high = (u, v) if u < v else (v, u)
        return low * self._num_vertices + high

    def edge_from_key(self, key: int) -> tuple[int, int]:
        """Inverse of :meth:`edge_key`."""
        return divmod(key, self._num_vertices)

    def edge_key_array(self) -> Any:
        """All edges as canonical keys in one sorted ``uint64`` array."""
        n = self._num_vertices
        parts = [_np.empty(0, dtype=_np.uint64)]
        for start, stop in _row_blocks(n, n):
            # Keep each row's bits above the diagonal; in the block's matrix
            # the flat index (u - start)*n + v of bit (u, v), plus start*n, is
            # then the edge's key, ascending.
            upper = [
                row >> (u + 1) << (u + 1)
                for u, row in enumerate(self._rows[start:stop], start)
            ]
            flat = _np.flatnonzero(_bit_matrix(upper, n)).astype(_np.uint64)
            parts.append(flat + _np.uint64(start * n))
        return _np.concatenate(parts)

    def edge_keys(self) -> set[int]:
        """All edges as canonical keys (the labeled-graph set representation)."""
        n = self._num_vertices
        keys: set[int] = set()
        for u, row in enumerate(self._rows):
            keys.update(map((u * n + u + 1).__add__, _members(row >> (u + 1))))
        return keys

    @property
    def edge_key_universe(self) -> int:
        """Upper bound (exclusive) on edge keys for this vertex count."""
        return self._num_vertices * self._num_vertices

    @classmethod
    def from_edge_keys(cls, num_vertices: int, keys: Iterable[int] | Any) -> "Graph":
        """Rebuild a graph from canonical edge keys: any iterable of ints, or
        an integer NumPy array such as :meth:`edge_key_array`'s.

        A key ``u*n + v`` and its mirror ``v*n + u`` name one edge, and
        duplicates count once.  Raises :class:`ParameterError` for a key that
        is not an integer (a ``bool`` included), outside ``[0, n*n)``, or a
        self-loop ``u*n + u``: recovered keys come from a peer.
        """
        if num_vertices < 0:
            raise ParameterError("num_vertices must be non-negative")
        limit = num_vertices * num_vertices
        if isinstance(keys, _np.ndarray):
            if keys.ndim != 1 or keys.dtype.kind not in "ui":
                raise ParameterError("edge keys must be integers")
            if keys.size and (keys.min() < 0 or keys.max() >= limit):
                raise ParameterError(f"edge key out of range [0, {limit})")
            keys = keys.astype(_np.uint64, copy=False)
        else:
            keys = _as_ints(keys, "edge key")
            if keys and (min(keys) < 0 or max(keys) >= limit):
                raise ParameterError(f"edge key out of range [0, {limit})")
            keys = _np.fromiter(keys, dtype=_np.uint64, count=len(keys))
        rows = _rows_from_key_array(num_vertices, keys)
        # Counted from the rows so a key and its mirror are one edge.
        return cls._of_rows(rows, sum(map(int.bit_count, rows)) // 2)

    def relabel(self, mapping: Sequence[int]) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``mapping[v]``.

        ``mapping`` must be a permutation of ``0 .. n-1``: ints, or an
        integer NumPy array.
        """
        n = self._num_vertices
        # New vertex mapping[v] is old vertex v: gather rows and columns
        # through the inverse permutation.
        inverse = _np.empty(n, dtype=_np.intp)
        inverse[_permutation(mapping, n)] = _np.arange(n)
        old = inverse.tolist()
        rows: list[int] = []
        for start, stop in _row_blocks(n, n):
            block = _bit_matrix([self._rows[v] for v in old[start:stop]], n)
            rows.extend(_rows_of(block[:, inverse]))
        # A permutation keeps neighbors distinct and creates no self-loop.
        return Graph._of_rows(rows, self._num_edges)

    def relabeled_edge_keys(self, mapping: Sequence[int] | Any) -> Any:
        """``relabel(mapping).edge_key_array()`` without the relabeled graph.

        Each key of :meth:`edge_key_array` has its endpoints renamed through
        ``mapping`` (a permutation, as :meth:`relabel` takes it) and is
        re-keyed ``min * n + max``, and the keys are sorted: O(m) array work
        instead of a gather of the whole n-by-n matrix.
        """
        n = self._num_vertices
        labels = _permutation(mapping, n).astype(_np.int64, copy=False)
        # Keys are below n*n, so signed arithmetic and native indices hold them.
        low, high = _np.divmod(self.edge_key_array().view(_np.int64), max(n, 1))
        low, high = labels[low], labels[high]
        keys = _np.minimum(low, high) * n + _np.maximum(low, high)
        keys.sort()
        return keys.view(_np.uint64)

    # -- comparisons and conversions ----------------------------------------------------

    def edge_difference(self, other: "Graph") -> int:
        """Number of edge slots on which the two (labeled) graphs disagree."""
        if other.num_vertices != self._num_vertices:
            raise ParameterError("graphs must have the same number of vertices")
        return sum((a ^ b).bit_count() for a, b in zip(self._rows, other._rows)) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._num_vertices == other._num_vertices and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._num_vertices, tuple(self._rows)))

    def to_networkx(self) -> "networkx.Graph":
        """Convert to a :class:`networkx.Graph`."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._num_vertices))
        graph.add_edges_from(self.edges())
        return graph

    @classmethod
    def from_networkx(cls, nx_graph: "networkx.Graph") -> "Graph":
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
