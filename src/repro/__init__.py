"""repro -- Reconciling Graphs and Sets of Sets (Mitzenmacher & Morgan, PODS 2018).

A Python implementation of the paper's data structures and protocols, with
NumPy (a required dependency) carrying the IBLT cells and every batch hash:

* set reconciliation (IBLT and characteristic-polynomial protocols),
* the set-difference estimator,
* set-of-sets reconciliation (naive, IBLT-of-IBLTs, cascading, multi-round),
* random graph reconciliation (degree ordering and degree neighborhood
  signature schemes), forest reconciliation, and the unbounded-computation
  reference protocols of Section 4,
* applications to binary relational databases and shingled document
  collections.

Every protocol runs through one entry point, :func:`reconcile`, named by its
registered protocol (``repro.protocols.names()``); ``difference_bound=None``
selects a protocol's unknown-``d`` variant.

Quickstart::

    import repro
    from repro import SetOfSets

    alice = SetOfSets([{1, 2, 3}, {4, 5}, {6}])
    bob = SetOfSets([{1, 2, 3}, {4, 5, 7}, {6}])
    result = repro.reconcile(alice, bob, protocol="cascading", difference_bound=2,
                             universe_size=8, max_child_size=4, seed=42)
    assert result.success and result.recovered == alice
"""

from repro.comm import ReconciliationResult, Transcript
from repro.core.setsofsets import (
    SetOfSets,
    MultisetOfMultisets,
    reconcile_multisets_of_multisets,
    minimum_matching_difference,
)
from repro.estimator import L0Estimator
from repro.iblt import IBLT, IBLTParameters
from repro.graphs import Graph, RootedForest
from repro.db import BinaryTable
from repro.documents import DocumentCollection
from repro import protocols
from repro.protocols import (
    ReconcileOptions,
    SerializingTransport,
    Session,
    SocketTransport,
    reconcile,
)

__version__ = "1.0.0"

__all__ = [
    "ReconciliationResult",
    "Transcript",
    "protocols",
    "reconcile",
    "ReconcileOptions",
    "Session",
    "SerializingTransport",
    "SocketTransport",
    "SetOfSets",
    "MultisetOfMultisets",
    "reconcile_multisets_of_multisets",
    "minimum_matching_difference",
    "L0Estimator",
    "IBLT",
    "IBLTParameters",
    "Graph",
    "RootedForest",
    "BinaryTable",
    "DocumentCollection",
    "__version__",
]
