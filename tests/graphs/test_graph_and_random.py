"""Tests for the Graph type, random graph generation and labeled reconciliation."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import reconcile
from repro.errors import ParameterError
from repro.graphs import Graph, gnp_random_graph, perturb_edges
from repro.graphs import graph as graph_module
from repro.graphs.separation import degree_order_signatures
from repro.graphs.random_graphs import (
    planted_separated_graph,
    random_permutation,
    reconciliation_pair,
)


class TestGraph:
    def test_add_remove_edges(self):
        graph = Graph(4)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        assert graph.num_edges == 2
        assert graph.has_edge(1, 0)
        graph.remove_edge(0, 1)
        assert graph.num_edges == 1 and not graph.has_edge(0, 1)

    def test_duplicate_add_is_noop(self):
        graph = Graph(3, [(0, 1)])
        graph.add_edge(1, 0)
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            Graph(3).add_edge(1, 1)

    def test_vertex_range_checked(self):
        with pytest.raises(ParameterError):
            Graph(3).add_edge(0, 3)

    def test_toggle(self):
        graph = Graph(3)
        graph.toggle_edge(0, 2)
        assert graph.has_edge(0, 2)
        graph.toggle_edge(0, 2)
        assert not graph.has_edge(0, 2)

    def test_degrees_and_neighbors(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.neighbors(0) == {1, 2, 3}
        assert graph.degree_sequence() == [3, 1, 1, 1]

    def test_edge_keys_round_trip(self):
        graph = Graph(5, [(0, 4), (2, 3)])
        rebuilt = Graph.from_edge_keys(5, graph.edge_keys())
        assert rebuilt == graph

    def test_edge_key_canonical(self):
        graph = Graph(5)
        assert graph.edge_key(4, 1) == graph.edge_key(1, 4)

    def test_relabel_preserves_structure(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        relabeled = graph.relabel([3, 2, 1, 0])
        assert relabeled.has_edge(3, 2) and relabeled.has_edge(1, 0)
        assert relabeled.num_edges == graph.num_edges

    def test_relabel_requires_permutation(self):
        with pytest.raises(ParameterError):
            Graph(3).relabel([0, 0, 1])

    def test_edge_difference(self):
        a = Graph(4, [(0, 1), (1, 2)])
        b = Graph(4, [(0, 1), (2, 3)])
        assert a.edge_difference(b) == 2

    def test_networkx_round_trip(self):
        graph = Graph(6, [(0, 1), (2, 5), (3, 4)])
        back = Graph.from_networkx(graph.to_networkx())
        assert back == graph

    def test_copy_is_independent(self):
        graph = Graph(3, [(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert not graph.has_edge(1, 2)


SIZES = [0, 1, 2, 7, 8, 9, 63, 64, 65, 300]


def random_edges(n, seed):
    """Edges of a seeded G(n, p) draw with a random p, made without ``Graph``."""
    rng = random.Random(seed)
    p = rng.random()
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


class TestLinearTransforms:
    """The bulk transforms against the per-edge ``add_edge`` reference, on
    whole matrices, cut into blocks of a few rows and cut into blocks of one
    row each: every cut must give the values the reference gives, hence each
    other's."""

    @pytest.fixture(params=["numpy", "blocked", "one-row-blocks"], autouse=True)
    def route(self, request, monkeypatch):
        if request.param == "blocked":
            # 256 bits: one block up to n = 16, several from n = 17 on.
            monkeypatch.setattr(graph_module, "_BLOCK_BITS", 256)
        elif request.param == "one-row-blocks":
            # Narrower than any row: the floor of one row per block.
            monkeypatch.setattr(graph_module, "_BLOCK_BITS", 1)
        return request.param

    @pytest.mark.parametrize("n", SIZES)
    def test_equal_the_add_edge_reference(self, n):
        edges = random_edges(n, n)
        graph = Graph(n, edges)
        neighbors = [set() for _ in range(n)]
        for u, v in edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        keys = {u * n + v for u, v in edges}
        assert graph.edge_keys() == keys
        assert graph.degree_sequence() == [len(adjacent) for adjacent in neighbors]
        assert [graph.neighbors(v) for v in range(n)] == neighbors
        assert sorted(graph.edges()) == sorted(edges)

        mapping = random_permutation(n, random.Random(n))
        relabeled = Graph(n, [(mapping[u], mapping[v]) for u, v in edges])
        rebuilt = Graph.from_edge_keys(n, keys)
        for fast, reference in ((graph.relabel(mapping), relabeled), (rebuilt, graph)):
            assert fast == reference
            assert hash(fast) == hash(reference)
            assert fast.num_edges == reference.num_edges == len(edges)
            assert [fast.neighbors(v) for v in range(n)] == [
                reference.neighbors(v) for v in range(n)
            ]

        num_top = min(n, 5)
        degrees = graph.degree_sequence()
        ordered = sorted(range(n), key=lambda v: (-degrees[v], v))
        top = ordered[:num_top]
        expected = {
            v: frozenset(index for index, anchor in enumerate(top) if v in neighbors[anchor])
            for v in ordered[num_top:]
        }
        top_vertices, signatures = degree_order_signatures(graph, num_top)
        assert top_vertices == top
        assert list(signatures.items()) == list(expected.items())

    @pytest.mark.parametrize("n", SIZES)
    def test_key_arrays_equal_the_reference(self, route, n):
        edges = random_edges(n, n)
        graph = Graph(n, edges)
        array = graph.edge_key_array()
        assert array.dtype == np.uint64
        assert array.tolist() == sorted(u * n + v for u, v in edges)
        rebuilt = Graph.from_edge_keys(n, array)
        assert rebuilt == graph and rebuilt.num_edges == len(edges)
        assert hash(rebuilt) == hash(graph)

    @pytest.mark.parametrize("n", SIZES)
    def test_relabeled_edge_keys_equal_relabel(self, n):
        graph = Graph(n, random_edges(n, n + 1))
        mapping = random_permutation(n, random.Random(n))
        expected = graph.relabel(mapping).edge_key_array()
        for given in (mapping, np.array(mapping, dtype=np.intp)):
            keys = graph.relabeled_edge_keys(given)
            assert keys.dtype == np.uint64
            assert keys.tolist() == expected.tolist()

    @pytest.mark.parametrize(
        "mapping", [[0, 0, 1], [0, 1], [0, 1, 3], [True, False, 2], np.array([0, 2, 2])]
    )
    def test_relabeled_edge_keys_reject_non_permutations(self, mapping):
        with pytest.raises(ParameterError):
            Graph(3, [(0, 1)]).relabeled_edge_keys(mapping)

    def test_relabel_does_not_share_adjacency(self):
        graph = Graph(3, [(0, 1)])
        relabeled = graph.relabel([0, 1, 2])
        relabeled.add_edge(1, 2)
        assert graph.num_edges == 1 and not graph.has_edge(1, 2)

    @pytest.mark.parametrize("mapping", [[0, 0, 1], [0, 1], [0, 1, 3], [0, 1, 2, 3]])
    def test_relabel_rejects_non_permutations(self, mapping):
        with pytest.raises(ParameterError):
            Graph(3, [(0, 1)]).relabel(mapping)

    @pytest.mark.parametrize(
        "keys",
        [
            [16],          # n*n: first key past the universe
            [31],          # inside the 5-bit key width, outside the universe
            [-1],
            [1, 5],        # 5 = 1*4 + 1, a self-loop
            [0],           # 0*4 + 0
        ],
    )
    def test_from_edge_keys_rejects_non_edges(self, keys):
        with pytest.raises(ParameterError):
            Graph.from_edge_keys(4, keys)

    def test_from_edge_keys_rejects_keys_of_an_empty_graph(self):
        with pytest.raises(ParameterError):
            Graph.from_edge_keys(0, [0])
        assert Graph.from_edge_keys(0, []).num_edges == 0

    def test_duplicate_and_mirrored_keys_count_one_edge(self):
        # 1*4 + 2 and its mirror 2*4 + 1 name the same edge.
        graph = Graph.from_edge_keys(4, [6, 6, 9, 3])
        assert graph.num_edges == 2
        assert graph == Graph(4, [(1, 2), (0, 3)])


class TestVertexTypes:
    """A vertex or an edge key is an integer and never a ``bool``: a bool
    used to pass as 0 or 1, and a float used to crash on a list index.  A
    NumPy integer scalar is an integer, and is stored as a Python int."""

    def test_numpy_integer_scalars_are_vertices_and_keys(self):
        graph = Graph(4, [(np.int64(0), np.uint8(1))])
        graph.add_edge(np.intp(1), 2)
        assert graph.degree(np.int64(1)) == 2
        assert graph.has_edge(np.intp(0), 1) and graph.neighbors(np.int32(2)) == {1}
        assert graph.edge_key(np.int64(2), np.uint64(1)) == 6
        assert all(type(row) is int for row in graph._rows)
        assert Graph.from_edge_keys(4, list(np.array([1, 6], dtype=np.uint64))) == graph
        assert graph.relabel(list(np.arange(4))) == graph
        top, signatures = degree_order_signatures(graph, 1)
        assert top == [1] and signatures == {0: {0}, 2: {0}, 3: frozenset()}

    @pytest.mark.parametrize(
        "method, u, v",
        [
            ("add_edge", True, 2),
            ("add_edge", 0.0, 1),
            ("remove_edge", True, 2),
            ("remove_edge", 0.0, 1),
        ],
    )
    def test_edge_updates_reject_non_int_vertices(self, method, u, v):
        graph = Graph(3, [(1, 2)])
        with pytest.raises(ParameterError):
            getattr(graph, method)(u, v)
        assert graph == Graph(3, [(1, 2)])

    @pytest.mark.parametrize("keys", [[True], [6.0], [6.5]])
    def test_from_edge_keys_rejects_non_int_keys(self, keys):
        with pytest.raises(ParameterError):
            Graph.from_edge_keys(4, keys)

    @pytest.mark.parametrize("dtype", ["float64", "bool"])
    def test_from_edge_keys_rejects_non_int_arrays(self, dtype):
        with pytest.raises(ParameterError):
            Graph.from_edge_keys(4, np.array([6], dtype=dtype))

    @pytest.mark.parametrize("mapping", [[True, False, 2], [0.0, 1, 2]])
    def test_relabel_rejects_non_int_mappings(self, mapping):
        with pytest.raises(ParameterError):
            Graph(3, [(0, 1)]).relabel(mapping)


class TestRandomGraphs:
    def test_gnp_extremes(self):
        assert gnp_random_graph(10, 0.0, 1).num_edges == 0
        assert gnp_random_graph(10, 1.0, 1).num_edges == 45

    def test_gnp_expected_density(self):
        graph = gnp_random_graph(200, 0.3, 7)
        expected = 0.3 * 199 * 200 / 2
        assert 0.8 * expected < graph.num_edges < 1.2 * expected

    def test_gnp_deterministic_by_seed(self):
        assert gnp_random_graph(50, 0.2, 3) == gnp_random_graph(50, 0.2, 3)
        assert gnp_random_graph(50, 0.2, 3) != gnp_random_graph(50, 0.2, 4)

    #: ``(n, p, seed) -> (edges, sha256 prefix of the sorted keys)`` on the
    #: one NumPy stream.
    GNP_PINS = {
        (40, 0.3, 1): (237, "75749c53fc25c6eb"),
        (300, 0.2, 2018): (8922, "6f487a9d9151bf7a"),
    }

    @pytest.mark.parametrize("n, p, seed", [(40, 0.3, 1), (300, 0.2, 2018)])
    def test_gnp_realisations_are_pinned(self, n, p, seed):
        graph = gnp_random_graph(n, p, seed)
        digest = hashlib.sha256(repr(sorted(graph.edge_keys())).encode()).hexdigest()[:16]
        assert (graph.num_edges, digest) == self.GNP_PINS[(n, p, seed)]

    def test_gnp_invalid_probability(self):
        with pytest.raises(ParameterError):
            gnp_random_graph(10, 1.5, 1)

    def test_perturb_exact_changes(self):
        base = gnp_random_graph(60, 0.3, 5)
        perturbed = perturb_edges(base, 7, random.Random(1))
        assert base.edge_difference(perturbed) == 7

    def test_perturb_too_many_changes_rejected(self):
        with pytest.raises(ParameterError):
            perturb_edges(Graph(3), 10, random.Random(1))

    def test_random_permutation(self):
        permutation = random_permutation(20, random.Random(2))
        assert sorted(permutation) == list(range(20))

    def test_reconciliation_pair_difference_bound(self):
        pair = reconciliation_pair(80, 0.3, 6, seed=9, relabel_alice=False)
        assert pair.alice.edge_difference(pair.bob) <= 6

    def test_reconciliation_pair_relabeled(self):
        pair = reconciliation_pair(40, 0.4, 2, seed=11)
        # Same degree multiset even after relabeling (up to the perturbation).
        assert pair.alice.num_vertices == pair.bob.num_vertices

    def test_planted_separation_degrees(self):
        base = planted_separated_graph(200, 0.4, 12, degree_gap=3, seed=3)
        ordered = sorted((base.degree(v) for v in base.vertices()), reverse=True)
        for index in range(12):
            assert ordered[index] - ordered[index + 1] >= 3

    def test_planted_separation_invalid_params(self):
        with pytest.raises(ParameterError):
            planted_separated_graph(10, 0.2, 0, 2, seed=1)
        with pytest.raises(ParameterError):
            planted_separated_graph(10, 0.2, 2, 0, seed=1)


class TestLabeledReconciliation:
    def test_known_d(self):
        pair = reconciliation_pair(100, 0.3, 8, seed=3, relabel_alice=False)
        result = reconcile(
            pair.alice, pair.bob, protocol="labeled", difference_bound=10, seed=4,
        )
        assert result.success and result.recovered == pair.alice

    def test_unknown_d(self):
        pair = reconciliation_pair(100, 0.3, 8, seed=5, relabel_alice=False)
        result = reconcile(
            pair.alice, pair.bob, protocol="labeled", difference_bound=None, seed=6,
        )
        assert result.success and result.recovered == pair.alice
        assert result.num_rounds == 2

    def test_identical_graphs(self):
        graph = gnp_random_graph(50, 0.2, 7)
        result = reconcile(graph, graph.copy(), protocol="labeled", difference_bound=2, seed=8)
        assert result.success and result.recovered == graph

    def test_vertex_count_mismatch(self):
        with pytest.raises(ParameterError):
            reconcile(Graph(3), Graph(4), protocol="labeled", difference_bound=1, seed=1)

    # Derandomized: the protocol has an inherent (small) peeling-failure
    # probability at bound = d + 1, so free-ranging exploration eventually
    # finds an unlucky seed and caches it as a deterministic failure; a
    # fixed example sequence keeps the gate meaningful.  The known unlucky
    # seed is pinned separately below.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_small_graphs(self, seed):
        rng = random.Random(seed)
        base = gnp_random_graph(30, 0.3, seed)
        bob = perturb_edges(base, rng.randint(0, 5), rng)
        difference = base.edge_difference(bob)
        result = reconcile(
            base, bob, protocol="labeled", difference_bound=difference + 1, seed=seed,
        )
        assert result.success and result.recovered == base

    def test_known_unlucky_seed_fails_detected_not_wrong(self):
        # seed 2615 triggers an inherent IBLT peeling failure at bound
        # d + 1.  The required behavior is that the failure is *detected*
        # (never a silently wrong graph) and a larger bound reconciles the
        # same instance.
        seed = 2615
        rng = random.Random(seed)
        base = gnp_random_graph(30, 0.3, seed)
        bob = perturb_edges(base, rng.randint(0, 5), rng)
        difference = base.edge_difference(bob)
        result = reconcile(
            base, bob, protocol="labeled", difference_bound=difference + 1, seed=seed,
        )
        assert not result.success and result.recovered is None
        assert result.details["failure"] == "iblt-peel"
        retry = reconcile(
            base, bob, protocol="labeled", difference_bound=difference + 4, seed=seed,
        )
        assert retry.success and retry.recovered == base
