"""Tests for canonical forms, the fingerprint protocol, Figure 1 and Theorem 4.3."""

import pytest

from repro import reconcile
from repro.errors import ParameterError
from repro.graphs import (
    Graph,
    are_isomorphic_small,
    canonical_form_small,
    isomorphism_fingerprint_protocol,
)
from repro.graphs.isomorphism import (
    figure1_graphs,
    merge_ambiguity_classes,
    one_edge_extensions,
    single_sided_merge_possible,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestCanonicalForms:
    def test_relabeling_invariance(self):
        graph = Graph(5, [(0, 1), (1, 2), (3, 4)])
        relabeled = graph.relabel([4, 3, 2, 1, 0])
        assert canonical_form_small(graph) == canonical_form_small(relabeled)

    def test_distinguishes_non_isomorphic(self):
        assert canonical_form_small(path_graph(4)) != canonical_form_small(cycle_graph(4))

    def test_empty_and_trivial_graphs(self):
        assert canonical_form_small(Graph(0)) == ()
        assert canonical_form_small(Graph(1)) == ()

    def test_size_limit_enforced(self):
        with pytest.raises(ParameterError):
            canonical_form_small(Graph(12))

    def test_are_isomorphic_small(self):
        assert are_isomorphic_small(path_graph(5), path_graph(5).relabel([2, 0, 4, 1, 3]))
        assert not are_isomorphic_small(path_graph(5), cycle_graph(5))
        assert not are_isomorphic_small(Graph(3), Graph(4))


class TestFingerprintProtocol:
    def test_isomorphic_graphs_accepted(self):
        graph = cycle_graph(6)
        result = isomorphism_fingerprint_protocol(graph.relabel([5, 4, 3, 2, 1, 0]), graph, 1)
        assert result.recovered is True

    def test_non_isomorphic_rejected(self):
        result = isomorphism_fingerprint_protocol(path_graph(6), cycle_graph(6), 2)
        assert result.recovered is False

    def test_communication_is_logarithmic(self):
        # Theorem 4.1 / Corollary 4.2: O(log n) bits, i.e. nothing like n^2.
        result = isomorphism_fingerprint_protocol(cycle_graph(7), cycle_graph(7), 3)
        assert result.total_bits < 200

    def test_vertex_count_mismatch(self):
        with pytest.raises(ParameterError):
            isomorphism_fingerprint_protocol(Graph(3), Graph(4), 1)


class TestFigure1:
    def test_merge_ambiguity_exists(self):
        first, second = figure1_graphs()
        classes = merge_ambiguity_classes(first, second)
        assert len(classes) >= 2

    def test_no_single_sided_merge(self):
        first, second = figure1_graphs()
        assert not single_sided_merge_possible(first, second)

    def test_one_edge_extensions_count(self):
        graph = Graph(4, [(0, 1)])
        assert len(one_edge_extensions(graph)) == 6 - 1

    def test_union_really_ambiguous(self):
        # The distinct classes are genuinely non-isomorphic merge results.
        first, second = figure1_graphs()
        classes = merge_ambiguity_classes(first, second)
        assert len(set(classes)) == len(classes)


class TestExhaustiveReconciliation:
    def test_recovers_isomorphic_graph(self):
        alice = path_graph(6).relabel([3, 1, 5, 0, 2, 4])
        bob = path_graph(6)
        bob.toggle_edge(0, 3)
        result = reconcile(alice, bob, protocol="exhaustive", difference_bound=1, seed=1)
        assert result.success
        assert are_isomorphic_small(result.recovered, alice)

    def test_zero_difference(self):
        graph = cycle_graph(5)
        result = reconcile(
            graph.relabel([4, 2, 0, 3, 1]), graph, protocol="exhaustive",
            difference_bound=0, seed=2,
        )
        assert result.success and are_isomorphic_small(result.recovered, graph)

    def test_two_changes(self):
        alice = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        bob = alice.copy()
        bob.toggle_edge(0, 1)
        bob.toggle_edge(2, 4)
        result = reconcile(
            alice.relabel([1, 0, 3, 2, 4]), bob, protocol="exhaustive", difference_bound=2,
            seed=3,
        )
        assert result.success and are_isomorphic_small(result.recovered, alice)

    def test_communication_is_d_log_n(self):
        # Theorem 4.3 / 4.4: O(d log n) bits -- minuscule compared to the graph.
        alice, bob = path_graph(6), path_graph(6)
        result = reconcile(alice, bob, protocol="exhaustive", difference_bound=1, seed=4)
        assert result.total_bits < 64

    def test_size_limit(self):
        with pytest.raises(ParameterError):
            reconcile(Graph(12), Graph(12), protocol="exhaustive", difference_bound=1, seed=1)

    def test_mismatched_sizes(self):
        with pytest.raises(ParameterError):
            reconcile(Graph(4), Graph(5), protocol="exhaustive", difference_bound=1, seed=1)

    def test_insufficient_bound_fails(self):
        alice = cycle_graph(6)
        bob = Graph(6)
        result = reconcile(alice, bob, protocol="exhaustive", difference_bound=1, seed=5)
        assert not result.success
