"""Graph substrate and graph reconciliation applications (Sections 4-6).

* :mod:`repro.graphs.graph` -- a light undirected simple-graph type with
  canonical edge encodings and networkx interoperability.
* :mod:`repro.graphs.random_graphs` -- G(n, p) generation and the paper's
  perturbation model (a base graph, each party holding a copy with at most
  ``d/2`` edge changes and a private relabeling).
* :mod:`repro.graphs.isomorphism` -- the folklore fingerprint protocol for
  graph isomorphism (Theorem 4.1) and brute-force canonical forms for tiny
  graphs.
* :mod:`repro.graphs.exhaustive` -- unbounded-computation graph
  reconciliation (Theorem 4.3), usable for very small graphs.
* :mod:`repro.graphs.separation` -- the robustness properties of Section 5:
  (h, a, b)-separation (Definition 5.1) and degree-neighborhood disjointness
  (Definition 5.4).
* :mod:`repro.graphs.degree_order` -- random graph reconciliation with the
  degree-ordering signature scheme (Theorem 5.2).
* :mod:`repro.graphs.degree_neighborhood` -- random graph reconciliation
  with the degree-neighborhood signature scheme (Theorem 5.6).
* :mod:`repro.graphs.forest` -- rooted forests, AHU canonical labels and
  forest reconciliation (Theorem 6.1).

Each scheme is a party pair in :mod:`repro.protocols.parties.graphs`, run by
``repro.reconcile(alice, bob, protocol=...)`` with ``"labeled"`` (graphs
sharing a labeling: plain set reconciliation over edge keys, Section 4),
``"exhaustive"``, ``"degree_order"``, ``"degree_neighborhood"`` or
``"forest"``.
"""

from repro.graphs.graph import Graph
from repro.graphs.random_graphs import (
    gnp_random_graph,
    perturb_edges,
    random_permutation,
    reconciliation_pair,
)
from repro.graphs.isomorphism import (
    canonical_form_small,
    are_isomorphic_small,
    isomorphism_fingerprint_protocol,
)
from repro.graphs.separation import (
    degree_order_signatures,
    is_degree_separated,
    degree_neighborhood_signatures,
    neighborhood_disjointness,
)
from repro.graphs.forest import (
    RootedForest,
    ahu_signatures,
    forest_canonical_form,
)

__all__ = [
    "Graph",
    "gnp_random_graph",
    "perturb_edges",
    "random_permutation",
    "reconciliation_pair",
    "canonical_form_small",
    "are_isomorphic_small",
    "isomorphism_fingerprint_protocol",
    "degree_order_signatures",
    "is_degree_separated",
    "degree_neighborhood_signatures",
    "neighborhood_disjointness",
    "RootedForest",
    "ahu_signatures",
    "forest_canonical_form",
]
