"""Tests for the Section 5 signature schemes and graph reconciliation protocols."""

from collections import Counter

import pytest

from repro import reconcile
from repro.core.setrecon.multiset import multiset_symmetric_difference
from repro.errors import ParameterError
from repro.graphs import (
    Graph,
    degree_neighborhood_signatures,
    degree_order_signatures,
    is_degree_separated,
    neighborhood_disjointness,
)
from repro.graphs.degree_order import canonical_labels
from repro.graphs.random_graphs import (
    gnp_random_graph,
    planted_separated_graph,
    reconciliation_pair,
)
from repro.graphs.separation import degree_sorted_vertices, signature_matrix, signature_order


class TestDegreeOrderSignatures:
    def star_plus_edge(self):
        # vertex 0 has degree 4, vertex 1 degree 2, others degree 1.
        return Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])

    def test_sorted_by_degree(self):
        graph = self.star_plus_edge()
        assert degree_sorted_vertices(graph)[0] == 0

    def test_signatures_are_adjacency_with_top(self):
        graph = self.star_plus_edge()
        top, signatures = degree_order_signatures(graph, 2)
        assert top == [0, 1]
        assert signatures[2] == {0, 1}
        assert signatures[3] == {0}
        assert signatures[4] == {0}

    def test_invalid_num_top(self):
        with pytest.raises(ParameterError):
            degree_order_signatures(Graph(3), 5)

    def test_separation_check(self):
        graph = self.star_plus_edge()
        # degrees 4,2 gap=2; signatures {0,1},{0},{0}: distance 0 between 3 and 4.
        assert is_degree_separated(graph, 2, 2, 1) is False
        assert is_degree_separated(graph, 1, 2, 1) is False

    def test_planted_graph_is_degree_separated(self):
        base = planted_separated_graph(150, 0.4, 10, degree_gap=3, seed=4)
        ordered = degree_sorted_vertices(base)
        degrees = [base.degree(v) for v in ordered]
        assert all(degrees[i] - degrees[i + 1] >= 3 for i in range(10))

    def test_canonical_labeling_duplicate_signatures_rejected(self):
        with pytest.raises(ParameterError):
            matrix = signature_matrix([{0}, {0}], 1)
            canonical_labels([0], [1, 2], matrix, signature_order(matrix))

    def test_canonical_labeling_order(self):
        matrix = signature_matrix([{0, 1}, {0}], 2)
        labeling = canonical_labels([3, 0], [1, 2], matrix, signature_order(matrix))
        assert labeling[3] == 0 and labeling[0] == 1
        assert labeling[2] == 2 and labeling[1] == 3


class TestDegreeOrderProtocol:
    def make_pair(self, n=400, p=0.5, d=2, h=32, seed=5):
        base = planted_separated_graph(n, p, h, degree_gap=d + 1, seed=seed)
        return reconciliation_pair(n, p, d, seed=seed + 1, base=base), h, d

    def test_end_to_end_recovery(self):
        pair, h, d = self.make_pair()
        result = reconcile(
            pair.alice, pair.bob, protocol="degree_order", difference_bound=d, num_top=h,
            seed=6,
        )
        assert result.success
        recovered = result.recovered
        assert sorted(recovered.degree_sequence()) == sorted(pair.alice.degree_sequence())
        assert recovered.num_edges == pair.alice.num_edges

    def test_one_round(self):
        pair, h, d = self.make_pair(seed=15)
        result = reconcile(
            pair.alice, pair.bob, protocol="degree_order", difference_bound=d, num_top=h,
            seed=7,
        )
        if result.success:
            assert result.num_rounds == 1

    def test_communication_much_smaller_than_graph(self):
        pair, h, d = self.make_pair(seed=25)
        result = reconcile(
            pair.alice, pair.bob, protocol="degree_order", difference_bound=d, num_top=h,
            seed=8,
        )
        if result.success:
            full_graph_bits = pair.alice.num_vertices * (pair.alice.num_vertices - 1) // 2
            assert result.total_bits < full_graph_bits / 2

    def test_unseparated_graph_fails_cleanly(self):
        pair = reconciliation_pair(60, 0.5, 4, seed=9)
        result = reconcile(
            pair.alice, pair.bob, protocol="degree_order", difference_bound=4, num_top=6,
            seed=10,
        )
        assert not result.success
        assert result.details["failure"] is not None

    def test_vertex_count_mismatch(self):
        with pytest.raises(ParameterError):
            reconcile(
                Graph(3), Graph(4), protocol="degree_order", difference_bound=1, num_top=2,
                seed=1,
            )

    def test_invalid_num_top(self):
        with pytest.raises(ParameterError):
            reconcile(
                Graph(4), Graph(4), protocol="degree_order", difference_bound=1, num_top=0,
                seed=1,
            )


class TestDegreeNeighborhoodSignatures:
    def test_signature_contents(self):
        graph = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        signatures = degree_neighborhood_signatures(graph, max_degree=3)
        assert signatures[3] == Counter({3: 1})          # neighbor 2 has degree 3
        assert signatures[0] == Counter({2: 1, 3: 1})     # neighbors 1 (deg 2), 2 (deg 3)

    def test_truncation(self):
        graph = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        signatures = degree_neighborhood_signatures(graph, max_degree=2)
        assert signatures[3] == Counter()                 # degree-3 neighbor excluded

    def test_multiset_difference(self):
        assert multiset_symmetric_difference(Counter({1: 2}), Counter({1: 1, 2: 1})) == 2

    def test_disjointness_monotone_in_density(self):
        sparse = gnp_random_graph(150, 0.1, 3)
        dense = gnp_random_graph(150, 0.4, 3)
        assert neighborhood_disjointness(dense, 60) >= neighborhood_disjointness(sparse, 15)

    def test_invalid_max_degree(self):
        with pytest.raises(ParameterError):
            degree_neighborhood_signatures(Graph(3), -1)


class TestDegreeNeighborhoodProtocol:
    def find_instance(self):
        # Look for a seed where the base graph supports d=1 (disjointness >= 5).
        for seed in range(5, 30):
            base = gnp_random_graph(150, 0.35, seed)
            if neighborhood_disjointness(base, int(0.35 * 150)) >= 5:
                return reconciliation_pair(150, 0.35, 1, seed=seed + 100, base=base)
        return None

    def test_end_to_end_when_disjoint(self):
        pair = self.find_instance()
        if pair is None:
            pytest.skip("no disjoint instance found at this scale")
        result = reconcile(
            pair.alice, pair.bob, protocol="degree_neighborhood", difference_bound=1,
            max_degree=int(0.35 * 150), seed=11,
        )
        if result.success:
            assert sorted(result.recovered.degree_sequence()) == sorted(
                pair.alice.degree_sequence()
            )
        else:
            # The scheme is allowed to fail (Theorem 5.6 promises only 2/3),
            # but it must fail with a diagnostic rather than wrong output.
            assert result.details["failure"] is not None

    def test_vertex_count_mismatch(self):
        with pytest.raises(ParameterError):
            reconcile(
                Graph(3), Graph(4), protocol="degree_neighborhood", difference_bound=1,
                max_degree=2, seed=1,
            )

    def test_identical_graphs(self):
        graph = gnp_random_graph(60, 0.3, 13)
        if neighborhood_disjointness(graph, 18) < 5:
            pytest.skip("instance not disjoint enough for a deterministic check")
        result = reconcile(
            graph, graph.copy(), protocol="degree_neighborhood", difference_bound=1,
            max_degree=18, seed=14,
        )
        assert result.success
