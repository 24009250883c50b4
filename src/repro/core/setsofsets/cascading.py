"""The cascading IBLTs-of-IBLTs protocol (Algorithm 2, Theorem 3.7, Cor 3.8).

The flat IBLT-of-IBLTs protocol pays ``O(d)`` cells for *every* differing
child even though the total number of element changes across all children is
only ``d``.  Algorithm 2 fixes this with a cascade of levels
``i = 1 .. t = log2(min(d, h))``: level ``i`` uses child IBLTs of ``O(2^i)``
cells inside a parent IBLT of ``O(d / 2^i)`` cells.  Children with small
differences are recovered at the cheap early levels and *removed* from later
levels, so only the few children with large differences reach the expensive
levels.  When ``d >= h`` a final table ``T*`` of ``O(d/h)`` cells carries
explicit encodings of the children too different to pair up at all.

Communication: ``O(d log(min(d,h)) log u + d log s)`` bits, one round.

The protocol logic lives in :mod:`repro.protocols.parties.setsofsets`; the
functions here are the backward-compatible entry points (in-memory session).
"""

from __future__ import annotations

from repro.comm import ReconciliationResult, Transcript
from repro.core.setsofsets.types import SetOfSets


def reconcile_cascading(
    alice: SetOfSets,
    bob: SetOfSets,
    difference_bound: int,
    universe_size: int,
    max_child_size: int,
    seed: int,
    *,
    differing_children_bound: int | None = None,
    child_hash_bits: int = 48,
    num_hashes: int = 4,
    backend: str | None = None,
    field_kernel: str | None = None,
    level_slack: float = 3.0,
    transcript: Transcript | None = None,
) -> ReconciliationResult:
    """One-round cascading protocol for known ``d`` (Algorithm 2 / Theorem 3.7).

    Parameters
    ----------
    alice, bob:
        The two parent sets.
    difference_bound:
        Upper bound ``d`` on the total number of element changes.
    universe_size, max_child_size:
        Shared ``u`` and ``h``.
    seed:
        Shared seed.
    differing_children_bound:
        Bound ``d_hat`` on differing child sets; defaults to
        ``min(difference_bound, s)`` with ``s`` the larger parent size.
    backend:
        Cell-store backend (see :mod:`repro.config`).  A vectorized one builds
        and serializes each level's child tables as one cell tensor; the
        wide-keyed parent tables resolve to the pure-Python store, which folds
        each key to 64 bits once and then hashes the folds as one array.
    field_kernel:
        Scoped GF(p) kernel selection (see :mod:`repro.field.kernels`),
        matching the other set-of-sets entry points.  The cascade itself is
        pure-IBLT, so this only affects field arithmetic performed by custom
        encoding schemes or estimators running under this call.
    level_slack:
        Multiplier applied to the per-level capacity budget (the proof's 9/4
        constant rounded up).
    """
    from repro.protocols.parties.setsofsets import cascading_parties, context_for
    from repro.protocols.session import run_session

    ctx = context_for(
        alice,
        bob,
        universe_size,
        seed,
        max_child_size=max_child_size,
        differing_children_bound=differing_children_bound,
        child_hash_bits=child_hash_bits,
        num_hashes=num_hashes,
        backend=backend,
        level_slack=level_slack,
    )
    alice_party, bob_party = cascading_parties(alice, bob, difference_bound, ctx)
    return run_session(
        alice_party, bob_party, transcript=transcript, field_kernel=field_kernel
    )


def reconcile_cascading_unknown(
    alice: SetOfSets,
    bob: SetOfSets,
    universe_size: int,
    max_child_size: int,
    seed: int,
    *,
    initial_bound: int = 1,
    max_bound: int | None = None,
    child_hash_bits: int = 48,
    num_hashes: int = 4,
    backend: str | None = None,
    field_kernel: str | None = None,
    level_slack: float = 3.0,
) -> ReconciliationResult:
    """Repeated-doubling variant for unknown ``d`` (Corollary 3.8).

    As in :func:`~repro.core.setsofsets.iblt_of_iblts.reconcile_iblt_of_iblts_unknown`,
    the final doubling is clamped to ``max_bound`` so the largest permitted
    bound is always attempted.
    """
    from repro.protocols.parties.setsofsets import cascading_parties, context_for
    from repro.protocols.session import run_session

    ctx = context_for(
        alice,
        bob,
        universe_size,
        seed,
        max_child_size=max_child_size,
        child_hash_bits=child_hash_bits,
        num_hashes=num_hashes,
        backend=backend,
        level_slack=level_slack,
    )
    alice_party, bob_party = cascading_parties(
        alice, bob, None, ctx, initial_bound=initial_bound, max_bound=max_bound
    )
    return run_session(alice_party, bob_party, field_kernel=field_kernel)
