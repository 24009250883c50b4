"""Reconciliation of sets of sets (Section 3 -- the paper's core contribution).

Alice and Bob each hold a *parent set* of up to ``s`` *child sets*, each child
containing at most ``h`` elements of a universe of size ``u``; the total
number of element differences under the minimum-difference matching of child
sets is ``d``.  Protocols (all one-way: Bob ends with Alice's parent set), run
with ``repro.reconcile(alice, bob, protocol=..., universe_size=u, seed=...)``;
``difference_bound=None`` selects the unknown-``d`` variant:

===================================================  =====================  ========
call                                                 paper reference        rounds
===================================================  =====================  ========
``protocol="naive", difference_bound=d_hat``         Thm 3.3                1
``protocol="naive", difference_bound=None``          Thm 3.4                2
``protocol="iblt_of_iblts", difference_bound=d``     Alg 1 / Thm 3.5        1
``protocol="iblt_of_iblts", difference_bound=None``  Cor 3.6                O(log d)
``protocol="cascading", difference_bound=d``         Alg 2 / Thm 3.7        1
``protocol="cascading", difference_bound=None``      Cor 3.8                O(log d)
``protocol="multiround", difference_bound=d``        Thm 3.9                3
``protocol="multiround", difference_bound=None``     Thm 3.10               4
===================================================  =====================  ========

The party state machines live in :mod:`repro.protocols.parties.setsofsets`.
:mod:`repro.core.setsofsets.nested` adapts the protocols to sets of multisets
and multisets of multisets (Section 3.4), which the graph applications use.
"""

from repro.core.setsofsets.types import FlatSetOfSets, SetOfSets
from repro.core.setsofsets.matching import (
    minimum_matching_difference,
    relaxed_difference,
    differing_children_count,
)
from repro.core.setsofsets.nested import (
    MultisetOfMultisets,
    encode_multiset_children,
    decode_multiset_children,
    reconcile_multisets_of_multisets,
)

__all__ = [
    "SetOfSets",
    "FlatSetOfSets",
    "minimum_matching_difference",
    "relaxed_difference",
    "differing_children_count",
    "MultisetOfMultisets",
    "encode_multiset_children",
    "decode_multiset_children",
    "reconcile_multisets_of_multisets",
]
