"""Party state machines for the set-of-sets protocols (Section 3).

The four SSRK protocols -- naive (Thm 3.3/3.4), IBLT-of-IBLTs (Thm 3.5 /
Cor 3.6), cascading (Thm 3.7 / Cor 3.8) and multiround (Thm 3.9/3.10) --
split into explicit alice/bob generators plus the wire codecs for their
messages, followed by the multiset-of-multisets reduction (Thm 3.11) that
runs the cascading parties on multiplicity-folded parents.
:func:`repro.reconcile` runs the four protocols by name, and
:func:`~repro.core.setsofsets.nested.reconcile_multisets_of_multisets` runs
the reduction over a default (serializing) session.

Shared-context conventions (documented in docs/protocols.md): the universe
size ``u``, child bound ``h``, the seed, and both parents' child counts and
total sizes are public parameters -- exactly the quantities the paper's
protocol statements assume both parties know.  The unknown-``d`` variants
whose bound comes out of an estimator merge transmit it in a small
self-describing header (documented framing); the repeated-doubling variants
need no header because both parties track the deterministic bound schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable, Collection, Iterable

from repro.comm import WORD_BITS
from repro.comm.bits import BitReader, BitWriter
from repro.comm.sizing import bits_for_value
from repro.core.setrecon.cpi import (
    CPIMessage,
    cpi_decode,
    cpi_encode,
    field_for_universe,
)
from repro.core.setrecon.difference import apply_difference, max_element_bits
from repro.core.setsofsets.encoding import (
    ChildEncodingScheme,
    ChildTableCache,
    ExplicitChildScheme,
    child_set_hash,
    child_set_hash_many,
    encode_children,
    parent_hash,
)
from repro.core.setsofsets.nested import (
    MultisetOfMultisets,
    decode_multiset_children,
    encode_multiset_children,
    encoded_universe_size,
)
from repro.core.setsofsets.types import FlatSetOfSets, SetOfSets
from repro.errors import ParameterError
from repro.estimator import L0Estimator
from repro.hashing import derive_seed
from repro.iblt import IBLT, IBLTArray, IBLTParameters
from repro.iblt.table import fold_ladder, foldable
from repro.protocols.party import (
    END_OF_SESSION,
    PartyGenerator,
    PartyOutcome,
    PartyPair,
    Receive,
    Send,
    aborted_outcome,
)
from repro.protocols.parties.setrecon import (
    GROW,
    GROWTH_REFUSED,
    GrowOrCodec,
    bound_for_estimate,
    estimated_bound,
    start_rung,
)
from repro.protocols.wire import (
    NULL_CODEC,
    EstimatorCodec,
    PayloadCodec,
    TableCodec,
    TableWithHashCodec,
    WireError,
)

#: Width of the per-child identification hashes (the hash half of every
#: child-IBLT key, multiround's child hashes): two parents' ``2 s`` children
#: collide with probability about ``(2 s)**2 / 2**49``, under 1e-6 at
#: ``s = 10**4``, and a hash fits one machine word.
CHILD_HASH_BITS = 48

#: The cascade's capacity slack: level ``i >= 2`` is sized for
#: ``LEVEL_SLACK * d / 2**(i-1)`` children and T* for ``LEVEL_SLACK * d / h``,
#: the constant that the budget argument of Theorem 3.7's proof leaves free;
#: 3 is the value every pinned cascade transcript was recorded at.
LEVEL_SLACK = 3.0

#: The failure label of a bob whose decode names a child with an element at
#: or past the universe size: no child of an honest alice's, which the
#: encoders refuse.
OUTSIDE_UNIVERSE = "child-outside-universe"
#: The failure label of a bob whose decode names a child of more than ``h``
#: elements: no child of an honest alice's, which the encoders refuse.
OVER_MAX_SIZE = "child-over-max-size"

#: The first bound the repeated-doubling variants (Cor 3.6 / 3.8) try: a
#: small difference then costs a small table.  The last is
#: :func:`_doubling_top`.
INITIAL_BOUND = 1


@dataclass(frozen=True)
class SetsOfSetsContext:
    """Shared knowledge for one set-of-sets protocol execution.

    ``max_num_children`` and ``max_total_elements`` are the public size
    statistics (the paper's ``s`` and ``n``) used for the ``d_hat`` default
    and the doubling top, and ``child_count_gap`` is ``|s_A - s_B|``, which
    picks the cascade's T* start rung; builders fill them from both inputs.
    ``t_star_ladder=False`` sends the cascade's T* as one rung, for callers
    whose alice speaks again right after the cascade and so cannot wait for
    a growth request.
    """

    universe_size: int
    seed: int
    max_child_size: int | None = None
    differing_children_bound: int | None = None
    max_num_children: int = 1
    max_total_elements: int = 1
    child_count_gap: int = 0
    t_star_ladder: bool = True

    def with_seed(self, seed: int) -> "SetsOfSetsContext":
        return replace(self, seed=seed)


def context_for(
    alice: SetOfSets | FlatSetOfSets,
    bob: SetOfSets | FlatSetOfSets,
    universe_size: int,
    seed: int,
    **kwargs: Any,
) -> SetsOfSetsContext:
    """Build a context with the public size statistics of both parents."""
    return SetsOfSetsContext(
        universe_size,
        seed,
        max_num_children=max(1, alice.num_children, bob.num_children),
        max_total_elements=max(1, alice.total_elements + bob.total_elements),
        child_count_gap=abs(alice.num_children - bob.num_children),
        **kwargs,
    )


def _foreign_child(children: Collection[frozenset[int]], ctx: SetsOfSetsContext) -> str | None:
    """A bob's failure label for decoded children that no child of alice's
    can be (:data:`OUTSIDE_UNIVERSE`, :data:`OVER_MAX_SIZE`), or ``None``.

    A peer's key can carry either: a packed slot and a child IBLT's key hold
    ``ceil(log2 u)`` element bits, which reach past ``u`` unless ``u`` is a
    power of two, and a child IBLT, a CPI payload or a bitmap key holds a
    set of any size.
    """
    universe = ctx.universe_size
    if any(max(child, default=0) >= universe for child in children):
        return OUTSIDE_UNIVERSE
    limit = ctx.max_child_size
    if limit is not None and any(len(child) > limit for child in children):
        return OVER_MAX_SIZE
    return None


def _refuse_oversized(alice: SetOfSets, ctx: SetsOfSetsContext) -> None:
    """Raise :class:`ParameterError` for a child of alice's past
    ``ctx.max_child_size``, before she sends anything: her bob would refuse
    it (:data:`OVER_MAX_SIZE`) only after the whole session."""
    limit, largest = ctx.max_child_size, alice.max_child_size
    if limit is not None and largest > limit:
        raise ParameterError(f"child set of size {largest} exceeds max_child_size {limit}")


# ---------------------------------------------------------------------------
# Naive protocol (Theorems 3.3 and 3.4)
# ---------------------------------------------------------------------------


def _naive_parent_params(ctx: SetsOfSetsContext, bound: int) -> IBLTParameters:
    scheme = ExplicitChildScheme(ctx.universe_size, ctx.max_child_size)
    # A bound of d_hat differing child *pairs* can put up to 2 * d_hat child
    # encodings (one per side) into the difference table, so size for that.
    return IBLTParameters.for_difference(
        2 * max(1, bound),
        scheme.key_bits,
        derive_seed(ctx.seed, "naive-parent"),
    )


def _naive_codec(
    ctx: SetsOfSetsContext, bound: int | None, self_describing: bool
) -> TableWithHashCodec:
    return TableWithHashCodec(
        lambda b: _naive_parent_params(ctx, b),
        bound,
        self_describing=self_describing,
    )


def naive_alice_known(
    alice: SetOfSets,
    differing_children_bound: int,
    ctx: SetsOfSetsContext,
    *,
    self_describing: bool = False,
) -> PartyGenerator:
    """Alice's side of the one-round naive protocol (Theorem 3.3)."""
    if differing_children_bound < 0:
        raise ParameterError("differing_children_bound must be non-negative")
    scheme = ExplicitChildScheme(ctx.universe_size, ctx.max_child_size)
    params = _naive_parent_params(ctx, differing_children_bound)
    alice_table = IBLT(params)
    alice_table.insert_batch(scheme.encode_batch(alice.children))
    verification = parent_hash(alice.children, ctx.seed)
    yield Send(
        "naive parent IBLT",
        alice_table.size_bits + WORD_BITS,
        payload=(alice_table, verification),
        codec=_naive_codec(ctx, differing_children_bound, self_describing),
    )
    return PartyOutcome(True)


def naive_bob_known(
    bob: SetOfSets,
    differing_children_bound: int | None,
    ctx: SetsOfSetsContext,
    *,
    self_describing: bool = False,
) -> PartyGenerator:
    """Bob's side: subtract his encodings, peel, swap differing children."""
    payload = yield Receive(
        _naive_codec(ctx, differing_children_bound, self_describing)
    )
    if payload is END_OF_SESSION:
        return aborted_outcome()
    alice_table, verification = payload
    scheme = ExplicitChildScheme(ctx.universe_size, ctx.max_child_size)
    difference = alice_table.copy()
    difference.delete_batch(scheme.encode_batch(bob.children))
    decode = difference.try_decode()
    if not decode.success:
        return PartyOutcome(False, details={"failure": "parent-iblt-peel"})
    alice_only = [scheme.decode(key) for key in decode.positive]
    refused = _foreign_child(alice_only, ctx)
    if refused is not None:
        return PartyOutcome(False, details={"failure": refused})
    bob_only = [scheme.decode(key) for key in decode.negative]
    recovered = bob.replace_children(bob_only, alice_only)
    verified = parent_hash(recovered.children, ctx.seed) == verification
    return PartyOutcome(
        verified,
        recovered if verified else None,
        details={
            "differing_children_found": len(alice_only) + len(bob_only),
            "failure": None if verified else "verification-hash",
        },
    )


def _naive_child_ids(children: SetOfSets, ctx: SetsOfSetsContext) -> list[int]:
    """64-bit identifiers of whole child sets (the child-count estimator's keys)."""
    return child_set_hash_many(children, derive_seed(ctx.seed, "naive-child-id"), 64)


def _naive_estimator(ctx: SetsOfSetsContext, children: SetOfSets, side: int) -> L0Estimator:
    """The child-count estimator over whole-child identifiers."""
    estimator = L0Estimator(derive_seed(ctx.seed, "naive-estimator"))
    estimator.update_all(_naive_child_ids(children, ctx), side)
    return estimator


def naive_alice_unknown(alice: SetOfSets, ctx: SetsOfSetsContext) -> PartyGenerator:
    """Alice's side of the two-round naive protocol (Theorem 3.4)."""
    own = _naive_estimator(ctx, alice, 2)
    # A bound never needs more than s differing child pairs: the difference
    # holds at most a + b <= 2 s child encodings.
    prelude = yield from estimated_bound(
        own, EstimatorCodec(L0Estimator, own.seed), ctx.max_num_children
    )
    if prelude is None:
        return aborted_outcome()
    estimate, bound = prelude
    yield from naive_alice_known(alice, bound, ctx, self_describing=True)
    return PartyOutcome(
        True,
        details={
            "estimated_differing_children": estimate,
            "differing_children_bound_used": bound,
        },
    )


def naive_bob_unknown(bob: SetOfSets, ctx: SetsOfSetsContext) -> PartyGenerator:
    """Bob's side: send the child-count estimator, then the known-bound flow."""
    bob_estimator = _naive_estimator(ctx, bob, 1)
    yield Send(
        "child-count estimator",
        bob_estimator.size_bits,
        payload=bob_estimator,
        codec=EstimatorCodec(L0Estimator, bob_estimator.seed),
    )
    outcome = yield from naive_bob_known(bob, None, ctx, self_describing=True)
    return outcome


def naive_parties(
    alice: SetOfSets,
    bob: SetOfSets,
    differing_children_bound: int | None,
    ctx: SetsOfSetsContext,
) -> PartyPair:
    """Both parties for the ``naive`` protocol (known or unknown bound)."""
    if differing_children_bound is None:
        return naive_alice_unknown(alice, ctx), naive_bob_unknown(bob, ctx)
    return (
        naive_alice_known(alice, differing_children_bound, ctx),
        naive_bob_known(bob, differing_children_bound, ctx),
    )


# ---------------------------------------------------------------------------
# Shared repeated-doubling driver (Corollaries 3.6 and 3.8)
# ---------------------------------------------------------------------------


def _doubling_top(ctx: SetsOfSetsContext) -> int:
    """The last bound the doubling variants try: twice the parents' total
    size, which no difference between them reaches."""
    return 2 * ctx.max_total_elements


def doubling_alice(
    known_alice: Callable[[int, int], PartyGenerator], max_bound: int
) -> PartyGenerator:
    """Alice's side of a repeated-doubling protocol.

    ``known_alice(bound, attempt)`` builds the known-``d`` sub-party for one
    attempt, from :data:`INITIAL_BOUND` up to ``max_bound``.  After each
    attempt alice waits: a retry request means "double and go again";
    :data:`END_OF_SESSION` means bob verified and finished.
    """
    bound = INITIAL_BOUND
    attempts = 0
    while bound <= max_bound:
        attempts += 1
        yield from known_alice(bound, attempts)
        reply = yield Receive(NULL_CODEC)
        if reply is END_OF_SESSION:
            return PartyOutcome(True, attempts=attempts)
        if bound >= max_bound:
            break
        bound = min(2 * bound, max_bound)
    return PartyOutcome(False, attempts=attempts)


def doubling_bob(
    known_bob: Callable[[int, int], PartyGenerator], max_bound: int
) -> PartyGenerator:
    """Bob's side: try each attempt, acknowledge failures with a retry request.

    The final doubling is clamped to ``max_bound`` so the largest permitted
    bound is always attempted (a true ``d`` between the last power of two and
    ``max_bound`` would otherwise never be tried).
    """
    bound = INITIAL_BOUND
    attempts = 0
    while bound <= max_bound:
        attempts += 1
        outcome = yield from known_bob(bound, attempts)
        if outcome.success:
            outcome.attempts = attempts
            outcome.details["final_difference_bound"] = bound
            return outcome
        yield Send("retry request", WORD_BITS, payload=None, codec=NULL_CODEC)
        if bound >= max_bound:
            break
        bound = min(2 * bound, max_bound)
    return PartyOutcome(
        False,
        attempts=attempts,
        details={"failure": "exceeded-max-bound", "max_bound": max_bound},
    )


# ---------------------------------------------------------------------------
# IBLT-of-IBLTs protocol (Theorem 3.5, Corollary 3.6)
# ---------------------------------------------------------------------------


def _flat_child_scheme(
    ctx: SetsOfSetsContext, difference_bound: int
) -> ChildEncodingScheme:
    """Child-IBLT encoding scheme shared by both parties."""
    child_params = IBLTParameters.for_difference(
        max(1, difference_bound),
        max_element_bits(ctx.universe_size),
        derive_seed(ctx.seed, "child-iblt", "flat"),
        num_hashes=3,
        checksum_bits=24,
        count_bits=16,
    )
    return ChildEncodingScheme(
        child_params, CHILD_HASH_BITS, derive_seed(ctx.seed, "child-hash")
    )


def _flat_parent_params(ctx: SetsOfSetsContext, difference_bound: int) -> IBLTParameters:
    d_hat = (
        ctx.differing_children_bound
        if ctx.differing_children_bound is not None
        else max(1, difference_bound)
    )
    scheme = _flat_child_scheme(ctx, difference_bound)
    # Up to 2 * d_hat child encodings (one per side of each differing pair)
    # can remain in the parent table, so size it accordingly.
    return IBLTParameters.for_difference(
        2 * max(1, d_hat),
        scheme.key_bits,
        derive_seed(ctx.seed, "parent-iblt"),
    )


def _recover_child(
    scheme: ChildEncodingScheme,
    alice_key: int,
    candidate_children: list[frozenset[int]],
    candidate_tables: ChildTableCache,
) -> frozenset[int] | None:
    """Try to decode one of Alice's child encodings against candidate children.

    Returns Alice's recovered child set, or ``None`` if no candidate decodes
    to a set matching the encoding's hash.  Candidate tables come from the
    per-reconcile cache, so each candidate's table is built exactly once no
    matter how many of Alice's keys it is tried against.

    Child tables of keys up to 64 bits peel every candidate difference in
    one batched :meth:`~repro.iblt.multi.IBLTArray.decode_all` pass; wider
    ones are tried lazily one by one (keeping the early exit on the first
    hash match).  Either way the answer is the first candidate, in order,
    whose decode matches the hash.
    """
    alice_table, alice_hash = scheme.decode(alice_key)
    tables = [candidate_tables.get(candidate) for candidate in candidate_children]
    batched = IBLTArray.from_difference(alice_table, tables)
    if batched is not None:
        decodes = batched.decode_all()
    else:
        decodes = (
            alice_table.subtract(table).try_decode() for table in tables
        )
    for candidate, decode in zip(candidate_children, decodes):
        if not decode.success:
            continue
        recovered = frozenset(
            apply_difference(candidate, decode.positive, decode.negative)
        )
        if scheme.hash_of(recovered) == alice_hash:
            return recovered
    return None


def iblt_of_iblts_alice_known(
    alice: SetOfSets, difference_bound: int, ctx: SetsOfSetsContext
) -> PartyGenerator:
    """Alice's side of the one-round IBLT-of-IBLTs protocol (Theorem 3.5)."""
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    _refuse_oversized(alice, ctx)
    scheme = _flat_child_scheme(ctx, difference_bound)
    parent_params = _flat_parent_params(ctx, difference_bound)
    alice_table = IBLT(parent_params)
    alice_table.insert_batch(scheme.encode_all(alice.children))
    verification = parent_hash(alice.children, ctx.seed)
    yield Send(
        "parent IBLT of child encodings",
        alice_table.size_bits + WORD_BITS,
        payload=(alice_table, verification),
        codec=TableWithHashCodec(lambda b: _flat_parent_params(ctx, b), difference_bound),
    )
    return PartyOutcome(True)


def iblt_of_iblts_bob_known(
    bob: SetOfSets, difference_bound: int, ctx: SetsOfSetsContext
) -> PartyGenerator:
    """Bob's side: peel the parent, decode differing children pairwise."""
    payload = yield Receive(
        TableWithHashCodec(lambda b: _flat_parent_params(ctx, b), difference_bound)
    )
    if payload is END_OF_SESSION:
        return aborted_outcome()
    alice_table, verification = payload
    scheme = _flat_child_scheme(ctx, difference_bound)

    bob_children = bob.sorted_children()
    bob_encoding_to_child = dict(zip(scheme.encode_all(bob_children), bob_children))
    difference_table = alice_table.copy()
    difference_table.delete_batch(list(bob_encoding_to_child))
    decode = difference_table.try_decode()
    if not decode.success:
        return PartyOutcome(False, details={"failure": "parent-iblt-peel"})

    differing_bob_children = [
        bob_encoding_to_child[key]
        for key in decode.negative
        if key in bob_encoding_to_child
    ]
    if len(differing_bob_children) != len(decode.negative):
        # A negative key we never inserted: checksum corruption in the parent.
        return PartyOutcome(False, details={"failure": "parent-checksum"})

    differing = set(differing_bob_children)
    other_children = [child for child in bob_children if child not in differing]

    # Candidate child tables are built once per reconcile call and shared
    # across every one of Alice's keys; the fallback candidates (every other
    # child of bob's, the relaxed model of Theorem 3.5's notes) are only
    # built if some encoding actually needs them.
    candidate_tables = ChildTableCache(scheme)
    if decode.positive:
        candidate_tables.add_children(differing_bob_children)

    recovered_children: list[frozenset[int]] = []
    for alice_key in decode.positive:
        recovered = _recover_child(scheme, alice_key, differing_bob_children, candidate_tables)
        if recovered is None:
            candidate_tables.add_children(other_children)
            recovered = _recover_child(scheme, alice_key, other_children, candidate_tables)
        if recovered is None:
            return PartyOutcome(False, details={"failure": "child-iblt-decode"})
        recovered_children.append(recovered)
    refused = _foreign_child(recovered_children, ctx)
    if refused is not None:
        return PartyOutcome(False, details={"failure": refused})

    reconstruction = bob.replace_children(differing_bob_children, recovered_children)
    verified = parent_hash(reconstruction.children, ctx.seed) == verification
    return PartyOutcome(
        verified,
        reconstruction if verified else None,
        details={
            "differing_children_found": len(decode.positive) + len(decode.negative),
            "failure": None if verified else "verification-hash",
        },
    )


def iblt_of_iblts_parties(
    alice: SetOfSets,
    bob: SetOfSets,
    difference_bound: int | None,
    ctx: SetsOfSetsContext,
) -> PartyPair:
    """Both parties; ``difference_bound=None`` runs repeated doubling."""
    if difference_bound is not None:
        return (
            iblt_of_iblts_alice_known(alice, difference_bound, ctx),
            iblt_of_iblts_bob_known(bob, difference_bound, ctx),
        )

    def known_alice(bound: int, attempt: int) -> PartyGenerator:
        return iblt_of_iblts_alice_known(
            alice, bound, ctx.with_seed(derive_seed(ctx.seed, "doubling", attempt))
        )

    def known_bob(bound: int, attempt: int) -> PartyGenerator:
        return iblt_of_iblts_bob_known(
            bob, bound, ctx.with_seed(derive_seed(ctx.seed, "doubling", attempt))
        )

    return (
        doubling_alice(known_alice, _doubling_top(ctx)),
        doubling_bob(known_bob, _doubling_top(ctx)),
    )


# ---------------------------------------------------------------------------
# Cascading protocol (Algorithm 2, Theorem 3.7, Corollary 3.8)
# ---------------------------------------------------------------------------


def _level_child_scheme(ctx: SetsOfSetsContext, level: int) -> ChildEncodingScheme:
    """Child encoding scheme for cascade level ``level`` (child IBLTs of O(2^level) cells)."""
    child_params = IBLTParameters.for_difference(
        2**level,
        max_element_bits(ctx.universe_size),
        derive_seed(ctx.seed, "cascade-child", level),
        num_hashes=3,
        checksum_bits=24,
        count_bits=16,
    )
    return ChildEncodingScheme(
        child_params, CHILD_HASH_BITS, derive_seed(ctx.seed, "child-hash")
    )


def _clamped_capacity(budget: float, d_hat: int) -> int:
    """``ceil(budget)`` keys, clamped to ``[2, 2 * d_hat]``.

    No table of the cascade ever holds more than the ``2 * d_hat`` differing
    children of both sides.  The clamp is taken before the float becomes an
    int, so a huge ``difference_bound`` (whose budget reads ``inf``) can
    neither size a table past it nor overflow the conversion.
    """
    ceiling = 2 * d_hat
    return max(2, ceiling if budget >= ceiling else math.ceil(budget))


def _parent_capacity(level: int, difference_bound: int, d_hat: int) -> int:
    """Capacity (in keys) of the level-``level`` parent table.

    Level 1 may see every differing child encoding from both sides (up to
    ``2 * d_hat``); level ``i >= 2`` sees at most about ``d / 2^{i-1}``
    unrecovered children by the budget argument in the proof of Theorem 3.7
    (we apply :data:`LEVEL_SLACK` on top).
    """
    if level == 1:
        return max(2, min(2 * d_hat, 2 * difference_bound))
    return _clamped_capacity(LEVEL_SLACK * difference_bound / 2 ** (level - 1), d_hat)


@dataclass(frozen=True)
class _CascadePlan:
    """Everything both parties derive from the shared cascading context.

    ``schemes`` and ``level_params`` are the child-IBLT levels the plan runs;
    ``t_star_rungs`` is the fold ladder of T*, the explicit table that ends
    the cascade, smallest rung first and the top last (empty when the plan
    runs every level and ``d < h``).
    """

    schemes: tuple[ChildEncodingScheme, ...]
    level_params: tuple[IBLTParameters, ...]
    explicit_scheme: ExplicitChildScheme
    t_star_rungs: tuple[IBLTParameters, ...]

    @property
    def num_levels(self) -> int:
        return len(self.schemes)

    @property
    def t_star_params(self) -> IBLTParameters | None:
        """T*'s top rung (``None`` when the plan sends no T*)."""
        return self.t_star_rungs[-1] if self.t_star_rungs else None

    def message_bits(self, start: int = -1) -> int:
        """Bits of alice's message with T* at rung ``start`` (the top by default)."""
        total = sum(params.size_bits for params in self.level_params) + WORD_BITS
        if self.t_star_rungs:
            total += self.t_star_rungs[start].size_bits
        return total

    @property
    def total_bits(self) -> int:
        """The message's bits with T* at its top rung: what plans are ranked by."""
        return self.message_bits()

    def start_rung(self, ctx: SetsOfSetsContext) -> int:
        """The T* rung alice sends first: the smallest whose capacity covers
        the parents' child-count gap (0 when the plan sends no T*)."""
        return start_rung(self.t_star_rungs, ctx.child_count_gap) if self.t_star_rungs else 0


def _cascade_candidates(
    ctx: SetsOfSetsContext, difference_bound: int
) -> list[_CascadePlan]:
    """Every truncation of the cascade, cut ``j = 0 .. L`` in order.

    Cut ``j < L`` runs child-IBLT levels ``1..j`` and then one explicit table
    in place of level ``j + 1``, with that level's capacity: an explicit key
    decodes to the child itself, so nothing after it is needed.  Cut ``L``
    is Algorithm 2 in full, whose T* is present only when ``d >= h``.  With
    ``ctx.t_star_ladder`` each T* is rounded up to a
    :func:`~repro.iblt.table.foldable` top and carries its fold ladder;
    without, it is one rung.
    """
    difference_bound = max(1, difference_bound)
    d_hat = (
        ctx.differing_children_bound
        if ctx.differing_children_bound is not None
        else min(difference_bound, ctx.max_num_children)
    )
    cascade_limit = max(2, min(difference_bound, ctx.max_child_size))
    levels = range(1, max(1, math.ceil(math.log2(cascade_limit))) + 1)
    schemes = tuple(_level_child_scheme(ctx, level) for level in levels)
    capacities = [_parent_capacity(level, difference_bound, d_hat) for level in levels]
    level_params = tuple(
        IBLTParameters.for_difference(
            capacity,
            scheme.key_bits,
            derive_seed(ctx.seed, "cascade-parent", level),
        )
        for level, scheme, capacity in zip(levels, schemes, capacities)
    )
    explicit_scheme = ExplicitChildScheme(ctx.universe_size, ctx.max_child_size)
    explicit_seed = derive_seed(ctx.seed, "cascade-t-star")

    def explicit_table(capacity: int) -> tuple[IBLTParameters, ...]:
        params = IBLTParameters.for_difference(capacity, explicit_scheme.key_bits, explicit_seed)
        return fold_ladder(foldable(params)) if ctx.t_star_ladder else (params,)

    candidates = [
        _CascadePlan(
            schemes[:cut], level_params[:cut], explicit_scheme, explicit_table(capacity)
        )
        for cut, capacity in enumerate(capacities)
    ]
    t_star_rungs: tuple[IBLTParameters, ...] = ()
    if difference_bound >= ctx.max_child_size:
        t_star_rungs = explicit_table(
            _clamped_capacity(LEVEL_SLACK * difference_bound / ctx.max_child_size, d_hat)
        )
    candidates.append(_CascadePlan(schemes, level_params, explicit_scheme, t_star_rungs))
    return candidates


@lru_cache(maxsize=32)
def _cascade_plan(ctx: SetsOfSetsContext, difference_bound: int) -> _CascadePlan:
    """The cheapest truncation of the cascade by top-rung bits (fewer levels on a tie).

    Derived once per context and bound (a few hundred microseconds), so the
    two parties of one session, which share both, build it once.
    """
    return min(_cascade_candidates(ctx, difference_bound), key=lambda plan: plan.total_bits)


class CascadingMessageCodec(PayloadCodec):
    """Codec for Alice's single cascading message.

    Payload: ``(level_tables, t_star_or_None, verification)``, T* at rung
    ``start`` of the plan's ladder (the top by default).  Every table's
    parameters follow from the shared plan and start rung, so only cell
    contents travel -- exactly the bits the transcript charges (zero
    framing).
    """

    def __init__(self, plan: _CascadePlan, start: int = -1) -> None:
        self.plan = plan
        self.t_star_params = plan.t_star_rungs[start] if plan.t_star_rungs else None

    def write(
        self, writer: BitWriter, payload: tuple[list[IBLT], IBLT | None, int]
    ) -> None:
        level_tables, t_star, verification = payload
        if len(level_tables) != self.plan.num_levels:
            raise WireError("level count disagrees with the shared cascade plan")
        if (t_star is None) != (self.t_star_params is None):
            raise WireError("T* presence disagrees with the shared cascade plan")
        for params, table in zip(self.plan.level_params, level_tables):
            writer.write(table.serialize(), params.size_bits)
        if t_star is not None:
            if t_star.params != self.t_star_params:
                raise WireError("T* parameters disagree with the shared cascade plan")
            writer.write(t_star.serialize(), self.t_star_params.size_bits)
        writer.write(verification, WORD_BITS)

    def read(self, reader: BitReader) -> tuple[list[IBLT], IBLT | None, int]:
        level_tables = [
            IBLT.deserialize(params, reader.read(params.size_bits))
            for params in self.plan.level_params
        ]
        t_star = None
        if self.t_star_params is not None:
            t_star = IBLT.deserialize(
                self.t_star_params, reader.read(self.t_star_params.size_bits)
            )
        verification = reader.read(WORD_BITS)
        return level_tables, t_star, verification


#: Bob's one-bit T* growth request (:data:`GROW` is all that travels this way).
GROWTH_REQUEST_CODEC = GrowOrCodec(NULL_CODEC)


def reconstruction_hash(
    bob_hash: int,
    bob: SetOfSets | FlatSetOfSets,
    removed: Iterable[frozenset[int]],
    added: Iterable[frozenset[int]],
    seed: int,
) -> int:
    """``parent_hash(bob.replace_children(removed, added).children, seed)`` in O(d).

    :func:`parent_hash` XORs one check per child, so the reconstruction's
    hash is bob's own (``bob_hash``) XOR the checks of the children whose
    membership flips: the added ones he lacks, and the removed ones he has
    and does not get back.  Only those O(d) children are looked up in ``bob``.
    """
    added = set(map(frozenset, added))
    removed = set(map(frozenset, removed)) - added
    flips = {child for child in added if child not in bob}
    flips.update(child for child in removed if child in bob)
    return bob_hash ^ parent_hash(flips, seed)


def cascading_alice_known(
    alice: SetOfSets | FlatSetOfSets, difference_bound: int, ctx: SetsOfSetsContext
) -> PartyGenerator:
    """Alice's side: build the plan's level tables and T*, and send them at once.

    Every key and hash comes from one flat batch of her children (built
    here from a :class:`SetOfSets`).  T* goes at its start rung.  Below the
    top she then answers each growth request with the next rung's upper
    half and refuses one past the top; a T* that starts at its top (one
    rung) ends her side with the message.
    """
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    if ctx.max_child_size is None or ctx.max_child_size <= 0:
        raise ParameterError("max_child_size must be positive")
    plan = _cascade_plan(ctx, difference_bound)
    rungs = plan.t_star_rungs
    index = plan.start_rung(ctx)
    flat = alice if isinstance(alice, FlatSetOfSets) else FlatSetOfSets.of(alice)
    level_tables: list[IBLT] = []
    level_keys = encode_children(plan.schemes, flat)
    for keys, params in zip(level_keys, plan.level_params):
        table = IBLT(params)
        table.insert_batch(keys)
        level_tables.append(table)
    t_star: IBLT | None = None
    if rungs:
        t_star_keys = plan.explicit_scheme.encode_batch(flat)
        t_star = IBLT(rungs[index])
        t_star.insert_batch(t_star_keys)
    verification = parent_hash(flat, ctx.seed)
    yield Send(
        "cascading level tables",
        plan.message_bits(index),
        payload=(level_tables, t_star, verification),
        codec=CascadingMessageCodec(plan, index),
    )
    if index >= len(rungs) - 1:
        return PartyOutcome(True)
    while (yield Receive(GROWTH_REQUEST_CODEC)) is GROW:
        index += 1
        if index == len(rungs):
            return PartyOutcome(False, details={"failure": GROWTH_REFUSED})
        rung = IBLT(rungs[index])
        rung.insert_batch(t_star_keys)
        upper = rung.upper_half()
        yield Send(
            "T* upper half",
            upper.size_bits,
            payload=upper,
            codec=TableCodec(upper.params),
        )
    return PartyOutcome(True)


def cascading_bob_known(
    bob: SetOfSets | FlatSetOfSets, difference_bound: int, ctx: SetsOfSetsContext
) -> PartyGenerator:
    """Bob's side: process the plan's levels in order, then T* rung by rung.

    His keys and whole-parent hash come from one flat batch of his children
    (built here from a :class:`SetOfSets`), and frozensets only for the
    O(d) children that differ.  Each reconstruction is checked against
    alice's hash in O(d) (:func:`reconstruction_hash`).  Below the top, a
    rejected rung (a child peeled with both signs, or a wrong hash, which a
    failed peel leaves) sends a one-bit growth request, and alice's upper
    half unfolds T* to the next rung.  At the top the failure stands.
    """
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    if ctx.max_child_size is None or ctx.max_child_size <= 0:
        raise ParameterError("max_child_size must be positive")
    plan = _cascade_plan(ctx, difference_bound)
    rungs = plan.t_star_rungs
    index = plan.start_rung(ctx)
    payload = yield Receive(CascadingMessageCodec(plan, index))
    if payload is END_OF_SESSION:
        return aborted_outcome()
    level_tables, t_star, verification = payload

    # Bob's matching maps level keys back to his children by their canonical
    # index, the one place an order is observable.  His encodings for every
    # level come out of one pass over his batch; the few already-recovered
    # children are re-encoded per level below.
    flat = bob if isinstance(bob, FlatSetOfSets) else FlatSetOfSets.of(bob)
    bob_level_keys = encode_children(plan.schemes, flat)
    recovered_children: set[frozenset[int]] = set()   # D_A
    differing_rows: set[int] = set()                  # D_B, by canonical index

    for scheme, alice_table, bob_keys in zip(plan.schemes, level_tables, bob_level_keys):
        work = alice_table.copy()
        row_of_key = dict(zip(bob_keys, range(len(bob_keys))))
        deletions = [key for row, key in enumerate(bob_keys) if row not in differing_rows]
        if recovered_children:
            deletions.extend(scheme.encode_all(recovered_children))
        work.delete_batch(deletions)
        decode = work.try_decode()  # partial results are still useful on failure

        for key in decode.negative:
            row = row_of_key.get(key)
            if row is not None:
                differing_rows.add(row)
        candidates = [flat.child(row) for row in sorted(differing_rows)]
        candidate_tables = ChildTableCache(scheme)
        if decode.positive:
            candidate_tables.add_children(candidates)
        for key in decode.positive:
            recovered = _recover_child(scheme, key, candidates, candidate_tables)
            if recovered is not None:
                recovered_children.add(recovered)

    refused = _foreign_child(recovered_children, ctx)
    if refused is not None:
        return PartyOutcome(False, details={"failure": refused})
    bob_hash = parent_hash(flat, ctx.seed)
    differing_bob = {flat.child(row) for row in differing_rows}
    removed, added = differing_bob, recovered_children
    failure = "verification-hash"
    if t_star is None:
        verified = (
            reconstruction_hash(bob_hash, bob, removed, added, ctx.seed) == verification
        )
    else:
        # Children in D_B stay in the table so only Alice's unrecovered
        # children remain to extract: the keys a level >= 2 table carries,
        # so a T* that replaces a level fits that level's capacity.  All of
        # Bob's keys go out and D_B's come back in, which leaves the same cells.
        scheme = plan.explicit_scheme
        bob_keys = scheme.encode_batch(flat)
        # (Encoding an empty batch costs more than skipping it.)
        restored = scheme.encode_batch(differing_bob) if differing_bob else None
        recovered_keys = (
            scheme.encode_batch(recovered_children) if recovered_children else None
        )
        while True:
            work = t_star.copy()
            work.delete_batch(bob_keys)
            if restored is not None:
                work.insert_batch(restored)
            if recovered_keys is not None:
                work.delete_batch(recovered_keys)
            decode = work.try_decode()
            peeled = set(map(scheme.decode, decode.positive))
            added = recovered_children | peeled
            removed = differing_bob | {
                child for child in map(scheme.decode, decode.negative) if child in bob
            }
            # A child peeled with both signs is no difference, and the O(d)
            # hash cannot see it: its flip and its echo cancel.  A child
            # past the universe or past h is no child of alice's: a packed
            # slot holds element bits up to the next power of two.
            refused = _foreign_child(peeled, ctx)
            failure = refused or "verification-hash"
            verified = (
                refused is None
                and decode.positive.isdisjoint(decode.negative)
                and reconstruction_hash(bob_hash, bob, removed, added, ctx.seed) == verification
            )
            index += 1
            if verified or index >= len(rungs):
                break
            yield Send("T* growth request", 1, payload=GROW, codec=GROWTH_REQUEST_CODEC)
            upper = yield Receive(TableCodec(t_star.params))
            if upper is END_OF_SESSION:
                return aborted_outcome()
            t_star = t_star.unfold(upper)

    return PartyOutcome(
        verified,
        bob.replace_children(removed, added) if verified else None,
        details={
            "num_levels": plan.num_levels,
            "used_t_star": t_star is not None,
            "recovered_children": len(added),
            "differing_bob_children": len(removed),
            "failure": None if verified else failure,
        },
    )


def cascading_parties(
    alice: SetOfSets,
    bob: SetOfSets,
    difference_bound: int | None,
    ctx: SetsOfSetsContext,
) -> PartyPair:
    """Both parties; ``difference_bound=None`` runs repeated doubling."""
    if difference_bound is not None:
        return (
            cascading_alice_known(alice, difference_bound, ctx),
            cascading_bob_known(bob, difference_bound, ctx),
        )

    # Each attempt's T* is one rung: alice's next step waits for the retry request.
    def attempt_ctx(attempt: int) -> SetsOfSetsContext:
        return replace(
            ctx,
            seed=derive_seed(ctx.seed, "cascade-doubling", attempt),
            t_star_ladder=False,
        )

    def known_alice(bound: int, attempt: int) -> PartyGenerator:
        return cascading_alice_known(alice, bound, attempt_ctx(attempt))

    def known_bob(bound: int, attempt: int) -> PartyGenerator:
        return cascading_bob_known(bob, bound, attempt_ctx(attempt))

    return (
        doubling_alice(known_alice, _doubling_top(ctx)),
        doubling_bob(known_bob, _doubling_top(ctx)),
    )


# ---------------------------------------------------------------------------
# Multisets of multisets (Section 3.4, Theorem 3.11)
# ---------------------------------------------------------------------------


def multisets_of_multisets_parties(
    alice: MultisetOfMultisets,
    bob: MultisetOfMultisets,
    difference_bound: int,
    universe_size: int,
    seed: int,
    *,
    element_multiplicity_bound: int | None = None,
    parent_multiplicity_bound: int | None = None,
    **context_options: Any,
) -> PartyPair:
    """Both parties for Theorem 3.11: cascading over multiplicity-folded parents.

    ``difference_bound`` counts element insertions/deletions (the paper's
    ``d``); it is doubled internally because one multiplicity change touches
    two encoded pairs.  The multiplicity bounds are public context and
    default to what the two inputs exhibit; ``context_options`` are forwarded
    to :func:`context_for`.  Bob's ``recovered`` is Alice's
    :class:`MultisetOfMultisets`.
    """
    element_bound = (
        element_multiplicity_bound
        if element_multiplicity_bound is not None
        else max(alice.max_element_multiplicity, bob.max_element_multiplicity)
    )
    parent_bound = (
        parent_multiplicity_bound
        if parent_multiplicity_bound is not None
        else max(alice.max_parent_multiplicity, bob.max_parent_multiplicity)
    )
    encoded_alice = encode_multiset_children(alice, universe_size, element_bound, parent_bound)
    encoded_bob = encode_multiset_children(bob, universe_size, element_bound, parent_bound)
    encoded_bound = 2 * max(1, difference_bound) + 2
    ctx = context_for(
        encoded_alice,
        encoded_bob,
        encoded_universe_size(universe_size, element_bound, parent_bound),
        seed,
        max_child_size=max(1, encoded_alice.max_child_size, encoded_bob.max_child_size),
        **context_options,
    )

    def bob_party() -> PartyGenerator:
        outcome = yield from cascading_bob_known(encoded_bob, encoded_bound, ctx)
        if outcome.success:
            outcome.recovered = decode_multiset_children(
                outcome.recovered, universe_size, element_bound
            )
        return outcome

    return cascading_alice_known(encoded_alice, encoded_bound, ctx), bob_party()


# ---------------------------------------------------------------------------
# Multi-round protocol (Section 3.3, Theorems 3.9 and 3.10)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildPayload:
    """One per-child payload of Alice's final multiround message."""

    target_hash: int          # hash of Bob's child to decode against
    own_hash: int             # hash of Alice's child (verification)
    bound: int                # difference bound the payload was sized for
    iblt: IBLT | None         # used when the estimated difference is large
    cpi: CPIMessage | None    # used when the estimated difference is small

    def size_bits(self, hash_bits: int) -> int:
        payload = self.iblt.size_bits if self.iblt is not None else self.cpi.size_bits
        return 2 * hash_bits + payload


def _hash_iblt_params(ctx: SetsOfSetsContext, d_hat: int) -> IBLTParameters:
    # Up to 2 * d_hat child hashes (one per side of each differing pair) can
    # remain after Bob subtracts his own hashes, so size for that.
    return IBLTParameters.for_difference(
        2 * max(1, d_hat),
        CHILD_HASH_BITS,
        derive_seed(ctx.seed, "multiround-hash-iblt"),
        checksum_bits=24,
        count_bits=16,
    )


def _multiround_child_estimator(
    ctx: SetsOfSetsContext,
) -> tuple[Callable[[int], L0Estimator], int]:
    """The per-child estimators' factory and seed: small L0 sketches of
    O(log h) levels of 32 buckets, a fixed part of the protocol."""
    levels = max(4, max(1, ctx.max_child_size).bit_length() + 2)
    return (
        lambda seed: L0Estimator(seed, num_levels=levels, buckets_per_level=32),
        derive_seed(ctx.seed, "multiround-child-estimator"),
    )


def _multiround_child_params(
    ctx: SetsOfSetsContext, bound: int, own_hash: int
) -> IBLTParameters:
    return IBLTParameters.for_difference(
        bound,
        max_element_bits(ctx.universe_size),
        derive_seed(ctx.seed, "multiround-child-iblt", own_hash),
        num_hashes=3,
        checksum_bits=24,
    )


class MultiroundRound2Codec(PayloadCodec):
    """Codec for Bob's reply: his hash IBLT plus per-child estimators.

    The estimator list is self-delimiting: every estimator frame delimits
    itself, and none is shorter than an empty estimator's, so entries are
    read while a minimal entry (``hash_bits`` plus that frame) still fits in
    what is left.  With a hash of 8 bits or more (48 by default) the
    stream's byte padding never passes for an entry.  Zero framing.
    """

    def __init__(self, ctx: SetsOfSetsContext, hash_params: IBLTParameters) -> None:
        self.ctx = ctx
        self.params = hash_params
        self.factory, self.estimator_seed = _multiround_child_estimator(ctx)
        self.min_entry_bits = (
            CHILD_HASH_BITS + self.factory(self.estimator_seed).size_bits
        )

    def write(
        self,
        writer: BitWriter,
        payload: tuple[IBLT, list[tuple[int, L0Estimator]]],
    ) -> None:
        bob_hash_table, bob_estimators = payload
        writer.write(bob_hash_table.serialize(), self.params.size_bits)
        for child_hash, estimator in bob_estimators:
            writer.write(child_hash, CHILD_HASH_BITS)
            estimator.write_wire(writer)

    def read(
        self, reader: BitReader
    ) -> tuple[IBLT, list[tuple[int, L0Estimator]]]:
        bob_hash_table = IBLT.deserialize(self.params, reader.read(self.params.size_bits))
        bob_estimators = []
        while reader.remaining_bits >= self.min_entry_bits:
            child_hash = reader.read(CHILD_HASH_BITS)
            estimator = self.factory(self.estimator_seed)
            estimator.read_wire(reader)
            bob_estimators.append((child_hash, estimator))
        return bob_hash_table, bob_estimators


#: Per-child framing of the multiround round-3 message (documented): one
#: payload-kind flag bit plus the difference bound the payload was sized for.
CHILD_FLAG_BITS = 1
CHILD_BOUND_BITS = 24
#: Fixed width of the CPI set-size counter on the wire (the analytic
#: accounting charges the variable ``bits_for_value`` width instead).
CHILD_SET_SIZE_BITS = 32


def _clamp_child_bound(ctx: SetsOfSetsContext, bound: int) -> int:
    """Cap a per-child payload bound at ``2 h`` (a child differs in at most that)."""
    return min(bound, 2 * ctx.max_child_size) if ctx.max_child_size else bound


class MultiroundPayloadsCodec(PayloadCodec):
    """Codec for Alice's final message: a list of :class:`ChildPayload`.

    Each entry carries two child hashes, a flag/bound header (framing, see
    :data:`CHILD_FLAG_BITS` / :data:`CHILD_BOUND_BITS`) and either a child
    IBLT (parameters derived from the bound and the child's own hash) or CPI
    evaluations (count and field derived from the bound).  Entries are
    self-delimiting, so no list length travels.
    """

    def __init__(self, ctx: SetsOfSetsContext) -> None:
        self.ctx = ctx

    def _min_entry_bits(self) -> int:
        return 2 * CHILD_HASH_BITS + CHILD_FLAG_BITS + CHILD_BOUND_BITS

    def write(self, writer: BitWriter, payload: list[ChildPayload]) -> None:
        for child in payload:
            writer.write(child.target_hash, CHILD_HASH_BITS)
            writer.write(child.own_hash, CHILD_HASH_BITS)
            writer.write(0 if child.iblt is not None else 1, CHILD_FLAG_BITS)
            writer.write(child.bound, CHILD_BOUND_BITS)
            if child.iblt is not None:
                params = _multiround_child_params(
                    self.ctx, child.bound, child.own_hash
                )
                if child.iblt.params != params:
                    raise WireError("child IBLT parameters disagree with the context")
                writer.write(child.iblt.serialize(), params.size_bits)
            else:
                message = child.cpi
                writer.write(message.set_size, CHILD_SET_SIZE_BITS)
                element_bits = bits_for_value(message.prime - 1)
                for evaluation in message.evaluations:
                    writer.write(evaluation, element_bits)

    def read(self, reader: BitReader) -> list[ChildPayload]:
        payloads = []
        minimum = self._min_entry_bits()
        while reader.remaining_bits > minimum:
            target_hash = reader.read(CHILD_HASH_BITS)
            own_hash = reader.read(CHILD_HASH_BITS)
            is_cpi = reader.read(CHILD_FLAG_BITS)
            bound = reader.read(CHILD_BOUND_BITS)
            # An honest bound is >= 1 and already clamped; anything else would
            # buy a hostile peer a decode cubic in a 24-bit number.
            if bound < 1 or _clamp_child_bound(self.ctx, bound) != bound:
                raise WireError(f"per-child bound {bound} outside the clamp range")
            if not is_cpi:
                params = _multiround_child_params(self.ctx, bound, own_hash)
                table = IBLT.deserialize(params, reader.read(params.size_bits))
                payloads.append(ChildPayload(target_hash, own_hash, bound, table, None))
            else:
                set_size = reader.read(CHILD_SET_SIZE_BITS)
                prime = field_for_universe(self.ctx.universe_size, bound).modulus
                element_bits = bits_for_value(prime - 1)
                evaluations = tuple(
                    reader.read(element_bits) for _ in range(bound + 1)
                )
                payloads.append(
                    ChildPayload(
                        target_hash,
                        own_hash,
                        bound,
                        None,
                        CPIMessage(set_size, evaluations, bound, prime),
                    )
                )
        return payloads

    def framing_bits(self, payload: list[ChildPayload]) -> int:
        total = 0
        for child in payload:
            total += CHILD_FLAG_BITS + CHILD_BOUND_BITS
            if child.cpi is not None:
                total += CHILD_SET_SIZE_BITS - bits_for_value(
                    max(1, child.cpi.set_size)
                )
        return total


def _multiround_r1_codec(
    ctx: SetsOfSetsContext, d_hat: int | None, self_describing: bool
) -> TableWithHashCodec:
    return TableWithHashCodec(
        lambda dh: _hash_iblt_params(ctx, dh),
        d_hat,
        self_describing=self_describing,
    )


def multiround_alice_known(
    alice: SetOfSets,
    difference_bound: int,
    d_hat: int,
    ctx: SetsOfSetsContext,
    *,
    self_describing: bool = False,
) -> PartyGenerator:
    """Alice's side of the three-round protocol (Theorem 3.9): rounds 1 and 3."""
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    _refuse_oversized(alice, ctx)
    difference_bound = max(1, difference_bound)
    factory, estimator_seed = _multiround_child_estimator(ctx)
    hash_seed = derive_seed(ctx.seed, "child-hash")

    # ---- Round 1: the IBLT of Alice's child hashes (one batch; the hashes
    # of the whole parent set are computed in one batched pass).
    hash_params = _hash_iblt_params(ctx, d_hat)
    alice_hash_table = IBLT(hash_params)
    alice_children = alice.sorted_children()
    alice_hashes = child_set_hash_many(alice_children, hash_seed, CHILD_HASH_BITS)
    alice_hash_to_child = dict(zip(alice_hashes, alice_children))
    alice_child_to_hash = dict(zip(alice_children, alice_hashes))
    alice_hash_table.insert_batch(list(alice_hash_to_child))
    verification = parent_hash(alice.children, ctx.seed)
    yield Send(
        "child-hash IBLT",
        alice_hash_table.size_bits + WORD_BITS,
        payload=(alice_hash_table, verification),
        codec=_multiround_r1_codec(ctx, d_hat, self_describing),
    )

    # ---- Round 2 arrives: Bob's hash IBLT and his per-child estimators.
    payload = yield Receive(MultiroundRound2Codec(ctx, hash_params))
    if payload is END_OF_SESSION:
        return aborted_outcome()
    bob_hash_table, bob_estimators = payload
    hash_decode = alice_hash_table.subtract(bob_hash_table).try_decode()
    if not hash_decode.success:
        # Bob would have aborted too (identical tables); nothing to send.
        return PartyOutcome(False)

    # ---- Round 3: match children and send per-child payloads.
    alice_differing = [
        alice_hash_to_child[h] for h in hash_decode.positive if h in alice_hash_to_child
    ]
    if len(alice_differing) != len(hash_decode.positive):
        return PartyOutcome(False, details={"failure": "hash-collision"})
    cpi_threshold = math.isqrt(difference_bound)
    payloads: list[ChildPayload] = []
    for child in alice_differing:
        alice_estimator = factory(estimator_seed)
        alice_estimator.update_all(child, 2)
        best_hash = None
        best_estimate = None
        for bob_hash, bob_estimator in bob_estimators:
            estimate = bob_estimator.merge(alice_estimator).query()
            if best_estimate is None or estimate < best_estimate:
                best_estimate = estimate
                best_hash = bob_hash
        if best_hash is None:
            # Bob reported no differing children at all; send the child
            # explicitly via a CPI message against the empty set.
            best_hash = 0
            best_estimate = len(child)
        bound = _clamp_child_bound(ctx, bound_for_estimate(best_estimate))
        own_hash = alice_child_to_hash[child]
        if best_estimate >= cpi_threshold:
            child_params = _multiround_child_params(ctx, bound, own_hash)
            payloads.append(
                ChildPayload(
                    best_hash,
                    own_hash,
                    bound,
                    IBLT.from_items(child_params, child),
                    None,
                )
            )
        else:
            payloads.append(
                ChildPayload(
                    best_hash,
                    own_hash,
                    bound,
                    None,
                    cpi_encode(child, bound, ctx.universe_size),
                )
            )
    round3_bits = sum(
        payload.size_bits(CHILD_HASH_BITS) for payload in payloads
    )
    yield Send(
        "per-child payloads",
        round3_bits,
        payload=payloads,
        codec=MultiroundPayloadsCodec(ctx),
    )
    return PartyOutcome(True)


def multiround_bob_known(
    bob: SetOfSets,
    d_hat: int | None,
    ctx: SetsOfSetsContext,
    *,
    self_describing: bool = False,
) -> PartyGenerator:
    """Bob's side: rounds 2 and 4 (reply with estimators, then recover)."""
    payload = yield Receive(_multiround_r1_codec(ctx, d_hat, self_describing))
    if payload is END_OF_SESSION:
        return aborted_outcome()
    alice_hash_table, verification = payload
    hash_params = alice_hash_table.params
    factory, estimator_seed = _multiround_child_estimator(ctx)
    hash_seed = derive_seed(ctx.seed, "child-hash")

    def hash_of(child: frozenset[int]) -> int:
        return child_set_hash(child, hash_seed, CHILD_HASH_BITS)

    # ---- Round 2: Bob replies with his hash IBLT and per-child estimators.
    bob_hash_table = IBLT(hash_params)
    bob_children = bob.sorted_children()
    bob_hashes = child_set_hash_many(bob_children, hash_seed, CHILD_HASH_BITS)
    bob_hash_to_child = dict(zip(bob_hashes, bob_children))
    bob_child_to_hash = dict(zip(bob_children, bob_hashes))
    bob_hash_table.insert_batch(list(bob_hash_to_child))
    hash_decode = alice_hash_table.subtract(bob_hash_table).try_decode()
    if not hash_decode.success:
        return PartyOutcome(False, details={"failure": "hash-iblt-peel"})
    bob_differing = [
        bob_hash_to_child[h] for h in hash_decode.negative if h in bob_hash_to_child
    ]
    bob_estimators: list[tuple[int, L0Estimator]] = []
    for child in bob_differing:
        estimator = factory(estimator_seed)
        estimator.update_all(child, 1)
        bob_estimators.append((bob_child_to_hash[child], estimator))
    round2_bits = bob_hash_table.size_bits + sum(
        CHILD_HASH_BITS + estimator.size_bits for _, estimator in bob_estimators
    )
    # The hash-table parameters came with round 1 (directly, or via its
    # self-describing header), so the reply codec never needs its own header.
    yield Send(
        "hash IBLT + child estimators",
        round2_bits,
        payload=(bob_hash_table, bob_estimators),
        codec=MultiroundRound2Codec(ctx, hash_params),
    )

    # ---- Round 3 arrives: recover Alice's children.
    payloads = yield Receive(MultiroundPayloadsCodec(ctx))
    if payloads is END_OF_SESSION:
        return aborted_outcome()
    recovered_children: list[frozenset[int]] = []
    for payload in payloads:
        base_child = bob_hash_to_child.get(payload.target_hash, frozenset())
        recovered: frozenset[int] | None = None
        if payload.iblt is not None:
            base_table = IBLT.from_items(payload.iblt.params, base_child)
            decode = payload.iblt.subtract(base_table).try_decode()
            if decode.success:
                recovered = frozenset(
                    apply_difference(base_child, decode.positive, decode.negative)
                )
        else:
            success, result = cpi_decode(
                payload.cpi, set(base_child), ctx.universe_size, ctx.seed
            )
            if success:
                recovered = frozenset(result)
        if recovered is None or hash_of(recovered) != payload.own_hash:
            return PartyOutcome(False, details={"failure": "child-recovery"})
        recovered_children.append(recovered)
    refused = _foreign_child(recovered_children, ctx)
    if refused is not None:
        return PartyOutcome(False, details={"failure": refused})

    reconstruction = bob.replace_children(bob_differing, recovered_children)
    verified = parent_hash(reconstruction.children, ctx.seed) == verification
    return PartyOutcome(
        verified,
        reconstruction if verified else None,
        details={
            "differing_children_found": len(payloads) + len(bob_differing),
            "cpi_payloads": sum(1 for p in payloads if p.cpi is not None),
            "iblt_payloads": sum(1 for p in payloads if p.iblt is not None),
            "failure": None if verified else "verification-hash",
        },
    )


def _multiround_dhat_estimator(
    ctx: SetsOfSetsContext, children: SetOfSets, side: int
) -> L0Estimator:
    """The differing-children estimator over the children's hashes."""
    estimator = L0Estimator(derive_seed(ctx.seed, "multiround-dhat-estimator"))
    hash_seed = derive_seed(ctx.seed, "child-hash")
    estimator.update_all(child_set_hash_many(children, hash_seed, CHILD_HASH_BITS), side)
    return estimator


def multiround_alice_unknown(
    alice: SetOfSets,
    ctx: SetsOfSetsContext,
) -> PartyGenerator:
    """Alice's side of the four-round protocol (Theorem 3.10)."""
    _refuse_oversized(alice, ctx)
    own = _multiround_dhat_estimator(ctx, alice, 2)
    # As in the naive prelude: at most s differing child pairs.
    prelude = yield from estimated_bound(
        own, EstimatorCodec(L0Estimator, own.seed), ctx.max_num_children
    )
    if prelude is None:
        return aborted_outcome()
    estimated_d_hat, d_hat = prelude
    pseudo_d = max(1, d_hat * max(1, ctx.max_child_size) // 4)
    outcome = yield from multiround_alice_known(
        alice, pseudo_d, d_hat, ctx, self_describing=True
    )
    outcome.details.update(
        {
            "estimated_differing_children": estimated_d_hat,
            "differing_children_bound_used": d_hat,
        }
    )
    return outcome


def multiround_bob_unknown(
    bob: SetOfSets,
    ctx: SetsOfSetsContext,
) -> PartyGenerator:
    """Bob's side: send the child-hash estimator, then rounds 2 and 4."""
    bob_estimator = _multiround_dhat_estimator(ctx, bob, 1)
    yield Send(
        "child-hash estimator",
        bob_estimator.size_bits,
        payload=bob_estimator,
        codec=EstimatorCodec(L0Estimator, bob_estimator.seed),
    )
    outcome = yield from multiround_bob_known(bob, None, ctx, self_describing=True)
    return outcome


def multiround_parties(
    alice: SetOfSets,
    bob: SetOfSets,
    difference_bound: int | None,
    ctx: SetsOfSetsContext,
) -> PartyPair:
    """Both parties; ``difference_bound=None`` runs the four-round variant."""
    if difference_bound is None:
        return multiround_alice_unknown(alice, ctx), multiround_bob_unknown(bob, ctx)
    d_hat = (
        ctx.differing_children_bound
        if ctx.differing_children_bound is not None
        else min(max(1, difference_bound), ctx.max_num_children)
    )
    return (
        multiround_alice_known(alice, difference_bound, d_hat, ctx),
        multiround_bob_known(bob, d_hat, ctx),
    )
