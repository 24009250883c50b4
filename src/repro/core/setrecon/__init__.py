"""Single-set reconciliation protocols (Section 2 and Section 3.4).

One-way reconciliation: at the end of a protocol Bob holds Alice's set.
Run them with :func:`repro.reconcile`:

* ``protocol="ibf"`` -- Corollary 2.2: one round, ``O(d log u)`` bits,
  ``O(n)`` time, succeeds with probability ``1 - 1/poly(d)``; with
  ``difference_bound=None`` it is Corollary 3.2: two rounds, same
  communication, using a set-difference estimator first.
* ``protocol="cpi"`` -- Theorem 2.3: one round, ``O(d log u)`` bits,
  characteristic-polynomial interpolation, succeeds with probability 1
  (when the difference bound holds); :mod:`repro.core.setrecon.cpi` holds
  its encoder and decoder.
* :mod:`repro.core.setrecon.multiset` -- Section 3.4: the same protocols for
  multisets via the ``(element, multiplicity)`` encoding.

The party state machines live in :mod:`repro.protocols.parties.setrecon`.
"""

from repro.core.setrecon.cpi import CPIMessage
from repro.core.setrecon.multiset import (
    encode_multiset,
    decode_multiset,
    reconcile_multiset_known_d,
    multiset_symmetric_difference,
)
from repro.core.setrecon.difference import (
    symmetric_difference_size,
    apply_difference,
)

__all__ = [
    "CPIMessage",
    "encode_multiset",
    "decode_multiset",
    "reconcile_multiset_known_d",
    "multiset_symmetric_difference",
    "symmetric_difference_size",
    "apply_difference",
]
