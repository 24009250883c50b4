"""Store-served ``ibf``: the live sketch source, and the party built on it.

There are no store-specific generators.  :func:`stored_ibf_party` runs the
``ibf`` flow of :mod:`repro.protocols.parties.setrecon` over a
:class:`StoreView` instead of a set, so a store-served session has the same
labels, charged sizes, codecs and bytes as a from-scratch one.  That is not
an accident to be tested around but a consequence of linearity, and the
tests pin it:

* the live table equals ``IBLT.from_items`` over the mutated set
  bit-for-bit (updates commute), so alice's ``"set IBLT"`` payload is
  byte-identical;
* ``alice_table.subtract(stored_bob_table)`` equals the scratch source's
  ``alice_table.copy(); delete_batch(bob)`` -- both compute
  ``encode(A) - encode(B)`` cell-wise;
* the estimator merge is a counter-wise sum, so a live estimator merged
  with the peer's yields the same estimate (hence the same derived bound
  and the same self-describing header);
* the whole-set verification hash is an XOR fold, so
  ``hash(recovered) == stored_hash ^ xor(h(x) for x in positive) ^
  xor(h(x) for x in negative)`` whenever the peeled difference is honest
  (and with overwhelming probability the verification verdict matches the
  scratch source's in every case).

Serving as bob, the view verifies without materializing the reconciled set
(the point of the store is to *not* iterate the dataset); pass
``materialize=True`` to recover it, e.g. in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Collection, Mapping

from repro.core.setrecon.difference import apply_difference
from repro.errors import ParameterError
from repro.estimator import L0Estimator
from repro.iblt import IBLT
from repro.protocols.party import PartyGenerator
from repro.protocols.parties.setrecon import (
    SetReconContext,
    ibf_alice,
    ibf_bob,
    set_verification_hash,
)
from repro.store.config import SketchConfig
from repro.store.sketch import SketchStore


@dataclass
class StoreView:
    """One dataset's store handle bound to one protocol config.

    The thin seam between the parties and the store, and the live twin of
    :class:`~repro.protocols.parties.setrecon.SetSource`: parties ask the
    view for sketches and derived facts; every call is O(d) or O(1) after
    the first touch of a given ``(config, geometry)``.
    """

    store: SketchStore
    key: str
    config: SketchConfig
    dataset: Any
    materialize: bool = False
    outcome_details: ClassVar[Mapping[str, Any]] = {"served_from_store": True}

    @property
    def ctx(self) -> SetReconContext:
        return self.config.context()

    def table(self, difference_bound: int) -> IBLT:
        return self.store.table_for(
            self.key, self.config, difference_bound, self.dataset
        )

    def owned_table(self, difference_bound: int) -> IBLT:
        # copy(): the transcript keeps the sent payload object, and the live
        # table must never leave the store's control.
        return self.table(difference_bound).copy()

    def rung_table(self, difference_bound: int, num_cells: int) -> IBLT:
        """The live table for the bound folded to ``num_cells`` cells: any
        rung of its fold ladder, in O(cells), with no table built or kept."""
        return self.table(difference_bound).fold(num_cells)

    def difference_from(self, table: IBLT) -> IBLT:
        # Looked up by the *received* parameters (unknown-d bob learns the
        # geometry from the bound header); the store refuses ones this
        # config could not have derived.
        return table.subtract(
            self.store.table_for_params(self.key, self.config, table.params, self.dataset)
        )

    def estimator(self, side: int) -> L0Estimator:
        return self.store.estimator_for(self.key, self.config, side, self.dataset)

    @property
    def set_hash(self) -> int:
        return self.store.verification_hash(self.key, self.config, self.dataset)

    @property
    def size(self) -> int:
        return self.store.size_of(self.key, self.dataset)

    def with_difference(
        self, added: Collection[int], removed: Collection[int]
    ) -> tuple[int, int, set[int] | None]:
        """Hash and size of the set with a peeled difference applied, in O(d):
        the stored hash is an XOR fold, so the difference toggles in.  The
        elements cost an O(n) copy and come only when ``materialize`` asks."""
        recovered_hash = (
            self.set_hash
            ^ set_verification_hash(self.config.seed, added)
            ^ set_verification_hash(self.config.seed, removed)
        )
        recovered = (
            apply_difference(self.dataset, added, removed) if self.materialize else None
        )
        return recovered_hash, self.size + len(added) - len(removed), recovered


def stored_ibf_party(role: str, view: StoreView, difference_bound: int | None) -> PartyGenerator:
    """The store-served ``ibf`` party for one server role.

    The shared flow over the live view; ``difference_bound=None`` selects
    the unknown-``d`` flow.
    """
    if role not in ("alice", "bob"):
        raise ParameterError(f"role must be 'alice' or 'bob', got {role!r}")
    if role == "alice":
        return ibf_alice(view, difference_bound)
    return ibf_bob(view, difference_bound)
