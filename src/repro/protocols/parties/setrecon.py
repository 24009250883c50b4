"""Party state machines for plain set reconciliation (Section 2 protocols).

* ``ibf``: one alice and one bob flow (:func:`ibf_alice`, :func:`ibf_bob`).
  Corollary 2.2 is one message: IBLT + whole-set hash + set size.  With
  ``difference_bound=None`` the same flows run Corollary 3.2: bob's
  difference estimator first, then that message with a self-describing
  difference-bound header (32 bits of documented framing -- on a real wire
  bob cannot derive the bound alice computed from the merged estimator).
  They are written against a sketch source (:class:`SetSource`), so
  from-scratch ``ibf`` (``repro.reconcile(..., protocol="ibf")``),
  store-served ``ibf`` (:mod:`repro.store.parties`) and the unknown-``d``
  phase one of ``kv`` gossip (:mod:`repro.cluster.parties`) are the same
  generators.
* The fold ladder (:func:`ladder_alice`, :func:`ladder_bob_difference`): a
  known-bound exchange over the same seam that sends the fold of the bound's
  table at a start rung and grows it by upper halves.  ``kv``'s known-bound
  phase one runs it.
* ``cpi``: one message of characteristic-polynomial evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    ClassVar,
    Collection,
    Generator,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    Set,
)

import numpy as _np

from repro.comm import WORD_BITS
from repro.comm.bits import BitReader, BitWriter
from repro.comm.sizing import bits_for_value
from repro.core.setrecon.cpi import (
    CPIMessage,
    cpi_decode,
    cpi_encode,
    field_for_universe,
)
from repro.core.setrecon.difference import max_element_bits
from repro.errors import ParameterError
from repro.estimator import L0Estimator
from repro.hashing import Checksum, derive_seed
from repro.hashing.mix import checked_keys, is_key_array
from repro.iblt import IBLT, DecodeResult, IBLTParameters
from repro.iblt.backends import KeyBatch
from repro.iblt.sizing import capacity_of
from repro.iblt.table import fold_ladder, resized
from repro.protocols.party import (
    END_OF_SESSION,
    PartyGenerator,
    PartyOutcome,
    PartyPair,
    Receive,
    Send,
    aborted_outcome,
)
from repro.protocols.wire import (
    EstimatorCodec,
    PayloadCodec,
    TableCodec,
    TableWithHashCodec,
    WireError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np
    from numpy.typing import NDArray

    from repro.store.parties import StoreView

    #: A key set as one ``uint64`` array (valid set elements by its dtype).
    KeyArray = NDArray[np.uint64]

#: Width of the self-describing difference-bound header used by the
#: unknown-``d`` variants (documented framing; see docs/protocols.md).
BOUND_HEADER_BITS = 32

#: The multiplier on the merged L0 estimate that an unknown-``d`` initiator
#: sizes for (``ibf``, ``naive``, ``labeled``, ``kv``, and ``multiround``'s
#: differing-children and per-child estimates): twice the estimate
#: covers the true difference in at least 95 % of seeded trials at every
#: size ``tests/estimator/test_l0_routes.py`` measures.
SAFETY_FACTOR = 2.0


@lru_cache(maxsize=64)
def _verification_checksum(seed: int) -> Checksum:
    """The whole-set hash function under ``seed``: built (two BLAKE2b
    derivations) once per seed per process, not once per call."""
    return Checksum(derive_seed(seed, "set-verification"), WORD_BITS)


def set_verification_hash(seed: int, elements: Iterable[int]) -> int:
    """Whole-set verification hash (guards against undetected checksum failures).

    The :meth:`~repro.hashing.checksum.Checksum.of_set` fold, so
    ``H(S ^ D) == H(S) ^ H(D)``: the sketch store keeps it live in O(d).
    """
    return _verification_checksum(seed).of_set(elements)


@lru_cache(maxsize=64)
def table_seed(seed: int) -> int:
    """The seed every ``ibf`` table under session seed ``seed`` is built with."""
    return derive_seed(seed, "setrecon")


@lru_cache(maxsize=256)
def _table_params(universe_size: int, seed: int, difference_bound: int) -> IBLTParameters:
    """:meth:`SetReconContext.table_params`, derived once per process."""
    return IBLTParameters.for_difference(
        max(1, difference_bound), max_element_bits(universe_size), table_seed(seed)
    )


@dataclass(frozen=True)
class SetReconContext:
    """Shared knowledge both parties derive the ``ibf`` exchange from."""

    universe_size: int
    seed: int

    def table_params(self, difference_bound: int) -> IBLTParameters:
        return _table_params(self.universe_size, self.seed, difference_bound)

    @property
    def estimator_seed(self) -> int:
        return derive_seed(self.seed, "setrecon-estimator")

    def make_estimator(self) -> L0Estimator:
        return L0Estimator(self.estimator_seed)

    def estimator_codec(self) -> EstimatorCodec:
        return EstimatorCodec(L0Estimator, self.estimator_seed)


def bound_for_estimate(estimate: int) -> int:
    """The difference bound an unknown-``d`` initiator sizes her sketch for."""
    return max(1, int(round(SAFETY_FACTOR * estimate)) + 1)


def estimated_bound(
    own: L0Estimator, codec: EstimatorCodec, ceiling: int
) -> Generator[Receive, Any, tuple[int, int] | None]:
    """The initiator's half of every unknown-``d`` prelude (Cor 3.2, Thm 3.4,
    Thm 3.10): receive the peer's L0 frame, merge her own, and return
    ``(estimate, bound)`` -- or ``None`` when the session ended instead.

    The peer chooses the frame, so the bound is clamped: to ``ceiling``, the
    largest difference the caller's inputs can have, and to what a
    :data:`BOUND_HEADER_BITS` header carries.  A forged frame then cannot make
    her size a larger table than an honest one could.
    """
    peer = yield Receive(codec)
    if peer is END_OF_SESSION:
        return None
    estimate = peer.merge(own).query()
    bound = min(bound_for_estimate(estimate), ceiling, 2**BOUND_HEADER_BITS - 1)
    return estimate, bound


class IBFMessageCodec(PayloadCodec):
    """Codec for the known-``d`` message ``(table, set_hash, set_size)``.

    With ``self_describing=True`` a :data:`BOUND_HEADER_BITS` difference
    bound header is prepended (unknown-``d`` flow); the encoding side must
    then know ``bound``, the decoding side may pass ``bound=None``.
    """

    def __init__(
        self, ctx: SetReconContext, bound: int | None, self_describing: bool = False
    ) -> None:
        self.ctx = ctx
        self.bound = bound
        self.self_describing = self_describing

    def write(self, writer: BitWriter, payload: tuple[IBLT, int, int]) -> None:
        table, set_hash, set_size = payload
        if self.bound is None:
            raise WireError("encoding side must know the difference bound")
        if self.self_describing:
            writer.write(self.bound, BOUND_HEADER_BITS)
        params = self.ctx.table_params(self.bound)
        if table.params != params:
            raise WireError("table parameters disagree with the shared context")
        writer.write(table.serialize(), params.size_bits)
        writer.write(set_hash, WORD_BITS)
        writer.write_tail(set_size)

    def read(self, reader: BitReader) -> tuple[IBLT, int, int]:
        bound = reader.read(BOUND_HEADER_BITS) if self.self_describing else self.bound
        params = self.ctx.table_params(bound)
        table = IBLT.deserialize(params, reader.read(params.size_bits))
        set_hash = reader.read(WORD_BITS)
        set_size = reader.read_tail_int()
        return table, set_hash, set_size

    def framing_bits(self, payload: tuple[IBLT, int, int]) -> int:
        return BOUND_HEADER_BITS if self.self_describing else 0


def ibf_message_bits(ctx: SetReconContext, difference_bound: int, set_size: int) -> int:
    """Charged size of the known-``d`` message: table + whole-set hash + size.

    The single sizing rule for this message; composite protocols that report
    per-phase bit breakdowns (the graph schemes) use it too, so their details
    cannot drift from what the transcript charges.
    """
    return (
        ctx.table_params(difference_bound).size_bits
        + bits_for_value(set_size)
        + WORD_BITS
    )


class KeyArrayView(AbstractSet[int]):
    """A ``uint64`` key array as a read-only set: what :attr:`SetSource.items`
    holds for one, so callers keep treating ``items`` as a set (``len``,
    ``in``, ``|``; set algebra returns a plain ``set``)."""

    __slots__ = ("array",)

    def __init__(self, array: KeyArray) -> None:
        self.array = array

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator[int]:
        return iter(self.array.tolist())

    def __contains__(self, key: object) -> bool:
        return (
            isinstance(key, int)
            and 0 <= key < 1 << 64
            and bool((self.array == key).any())
        )

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Any]) -> set[Any]:
        return set(iterable)


@dataclass(frozen=True)
class SetSource:
    """The from-scratch *sketch source*: every sketch is built over ``items`` when asked.

    A sketch source is where a party's sketches of its own set come from: the
    seam the ``ibf`` flows are written against, and nothing else.  There are
    exactly two: this one, and the store's :class:`~repro.store.parties.StoreView`,
    which answers from live, incrementally maintained sketches.  Every sketch is
    linear, so the wire cannot tell them apart.

    ``items`` is a collection of non-negative ints or a ``uint64`` array (a
    graph's :meth:`~repro.graphs.graph.Graph.edge_key_array`), which the
    source then holds as a :class:`KeyArrayView`.  The source validates the
    items once, at construction, through
    :func:`~repro.hashing.mix.checked_keys` (an array by its dtype), which
    settles their one form there: a ``uint64`` array when every key is below
    ``2**64``, else the checked list.  The table build, Bob's delete, the set
    hash (computed once) and the estimator all reuse it; only a table whose
    keys take more than one limb is handed the array as a list.  Items that
    are not a set and repeat an element raise
    :class:`~repro.errors.ParameterError` (:func:`refuse_repeats`).
    """

    items: Collection[int] | KeyArray
    ctx: SetReconContext
    #: The validated items: a ``uint64`` array if they fit one, else a list.
    keys: list[int] | KeyArray = field(init=False, repr=False, compare=False)
    #: Entries the source adds to every outcome it helped produce.
    outcome_details: ClassVar[Mapping[str, Any]] = {}

    def __post_init__(self) -> None:
        items = self.items
        if isinstance(items, KeyArrayView):
            items = items.array
        if is_key_array(items):
            if self.ctx.universe_size > 1 << 64:
                raise ParameterError("a uint64 key array needs a universe of at most 2**64")
            object.__setattr__(self, "items", KeyArrayView(items))
        keys = checked_keys(items)
        refuse_repeats(items, keys)
        object.__setattr__(self, "keys", keys)

    def _batch_for(self, table: IBLT) -> KeyBatch | list[int]:
        """The keys as ``table``'s cell store takes them without checking
        them again: one word per key on a one-limb table, else a list."""
        keys = self.keys
        if isinstance(keys, list):
            return keys
        if table.params.key_bits <= 64:
            return KeyBatch(keys, keys)
        return keys.tolist()

    @property
    def size(self) -> int:
        return len(self.keys)

    @cached_property
    def set_hash(self) -> int:
        return _verification_checksum(self.ctx.seed).of_checked(self.keys)

    def _table(self, params: IBLTParameters) -> IBLT:
        table = IBLT(params)
        table.insert_batch(self._batch_for(table))
        return table

    def owned_table(self, difference_bound: int) -> IBLT:
        """The set's IBLT, as an object the receiver may keep."""
        return self._table(self.ctx.table_params(difference_bound))

    def rung_table(self, difference_bound: int, num_cells: int) -> IBLT:
        """The set's table at the ``num_cells`` rung of the bound's fold
        ladder, built at that size (by the fold identity, the fold of
        :meth:`owned_table`)."""
        return self._table(resized(self.ctx.table_params(difference_bound), num_cells))

    def estimator(self, side: int) -> L0Estimator:
        """The set's difference estimator, its elements on ``side`` (1 or 2)."""
        estimator = self.ctx.make_estimator()
        estimator.update_all(self.keys, side)
        return estimator

    def difference_from(self, table: IBLT) -> IBLT:
        """``table - encode(own set)``, ready to peel."""
        difference_table = table.copy()
        difference_table.delete_batch(self._batch_for(difference_table))
        return difference_table

    def with_difference(
        self, added: Collection[int], removed: Collection[int]
    ) -> tuple[int, int, set[int] | KeyArray | None]:
        """``(hash, size, elements)`` of the set with a peeled difference applied
        (``elements`` is ``None`` from a source that does not materialize sets).

        The elements come in the form the source was given -- a ``set`` for a
        collection, a ``uint64`` array for an array -- and the hash is of them,
        in O(d): the set fold is linear, so the set's own hash changes by the
        checksums of exactly the keys whose membership the difference flips.
        """
        checksum = _verification_checksum(self.ctx.seed)
        items = self.items
        if isinstance(items, KeyArrayView):
            array, flipped = _array_with_difference(items.array, added, removed)
            return self.set_hash ^ checksum.of_checked(flipped), len(array), array
        recovered = set(items)
        recovered_hash = self.set_hash
        for key in removed:
            if key in recovered:
                recovered.remove(key)
                recovered_hash ^= checksum.of_key(key)
        for key in added:
            if key not in recovered:
                recovered.add(key)
                recovered_hash ^= checksum.of_key(key)
        return recovered_hash, len(recovered), recovered


def refuse_repeats(items: Any, keys: list[int] | KeyArray) -> None:
    """Raise :class:`~repro.errors.ParameterError` when a set protocol's
    input repeats an element: ``keys`` is what
    :func:`~repro.hashing.mix.checked_keys` made of ``items``.

    A repeat would cancel out of the whole-set hash and stay in the table,
    so the session would fail without saying why.  A ``set`` or
    ``frozenset`` cannot repeat and costs nothing; an ascending array (a
    graph's edge keys) is settled in one pass."""
    if isinstance(items, AbstractSet):
        return
    if isinstance(keys, list):
        repeats = len(set(keys)) != len(keys)
    else:
        repeats = not (keys[1:] > keys[:-1]).all() and _np.unique(keys).size != keys.size
    if repeats:
        raise ParameterError("a set input repeats an element; pass a set")


def _array_with_difference(
    keys: KeyArray, added: Collection[int], removed: Collection[int]
) -> tuple[KeyArray, KeyArray]:
    """:func:`apply_difference` on a ``uint64`` array, without sorting it:
    every key the difference names leaves, then each added key comes back
    once.  Returns the new array and the keys that flipped its hash -- every
    copy that left, then every key that came back -- so that the new array's
    fold is the old one's XOR theirs."""
    fresh = _np.fromiter(set(added), dtype=_np.uint64, count=-1)
    named = _np.concatenate([_np.fromiter(removed, dtype=_np.uint64, count=-1), fresh])
    if not named.size:
        return keys.copy(), named
    leaving = _np.isin(keys, named)
    return (
        _np.concatenate([keys[~leaving], fresh]),
        _np.concatenate([keys[leaving], fresh]),
    )


def ibf_alice(
    source: SetSource | StoreView, difference_bound: int | None, *, label: str = "set IBLT"
) -> PartyGenerator:
    """Alice's side of the IBLT protocol (Corollary 2.2).

    ``difference_bound=None`` runs the Corollary 3.2 prelude first: receive
    bob's estimator, merge her own, and size the table from the estimate.
    """
    ctx = source.ctx
    if ctx.universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    details = dict(source.outcome_details)
    bound = difference_bound
    if bound is None:
        # The difference never exceeds the universe.
        prelude = yield from estimated_bound(
            source.estimator(2), ctx.estimator_codec(), ctx.universe_size
        )
        if prelude is None:
            return aborted_outcome()
        estimate, bound = prelude
        details.update(estimated_difference=estimate, difference_bound_used=bound)
    if bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    yield Send(
        label,
        ibf_message_bits(ctx, bound, source.size),
        payload=(source.owned_table(bound), source.set_hash, source.size),
        codec=IBFMessageCodec(ctx, bound, self_describing=difference_bound is None),
    )
    return PartyOutcome(True, details=details)


def ibf_bob_difference(
    source: SetSource | StoreView, difference_bound: int | None
) -> Generator[Send | Receive, Any, tuple[PartyOutcome, DecodeResult | None]]:
    """Bob's side, returning the outcome *and* the verified peeled difference.

    With ``difference_bound=None`` he first sends his estimator and then reads
    the bound off the message's self-describing header.  The difference is
    ``None`` unless the outcome verified; composites that act on it rather
    than on the recovered set (``kv``'s value fetch) continue from here.
    """
    ctx = source.ctx
    if difference_bound is None:
        bob_estimator = source.estimator(1)
        yield Send(
            "difference estimator",
            bob_estimator.size_bits,
            payload=bob_estimator,
            codec=ctx.estimator_codec(),
        )
    self_describing = difference_bound is None
    payload = yield Receive(IBFMessageCodec(ctx, difference_bound, self_describing))
    if payload is END_OF_SESSION:
        return aborted_outcome(), None
    alice_table, alice_hash, alice_size = payload
    decode = source.difference_from(alice_table).try_decode()
    return _verified_difference(source, decode, alice_hash, alice_size)


def _verified_difference(
    source: SetSource | StoreView, decode: DecodeResult, alice_hash: int, alice_size: int
) -> tuple[PartyOutcome, DecodeResult | None]:
    """Bob's outcome for one peel: the recovered set must hash to alice's
    hash and count her size, and no key may come out with both signs.  The
    difference comes back only if it did."""
    if not decode.success:
        details = {"failure": "iblt-peel", **source.outcome_details}
        return PartyOutcome(False, details=details), None
    recovered_hash, recovered_size, recovered = source.with_difference(
        decode.positive, decode.negative
    )
    # A key peeled with both signs (a false pure cell, then its echo) is no
    # set difference, and the store's O(d) XOR-fold hash and size cannot see
    # it: they toggle the key in and out again.
    verified = (
        recovered_hash == alice_hash
        and recovered_size == alice_size
        and decode.positive.isdisjoint(decode.negative)
    )
    outcome = PartyOutcome(
        verified,
        recovered if verified else None,
        details={
            "difference_found": decode.symmetric_difference_size(),
            "failure": None if verified else "verification-hash",
            **source.outcome_details,
        },
    )
    return outcome, decode if verified else None


def ibf_bob(source: SetSource | StoreView, difference_bound: int | None) -> PartyGenerator:
    """Bob's side: subtract his set, peel, verify the reconstruction."""
    outcome, _ = yield from ibf_bob_difference(source, difference_bound)
    return outcome


def ibf_parties(
    alice: Set[int],
    bob: Set[int],
    difference_bound: int | None,
    ctx: SetReconContext,
) -> PartyPair:
    """Both parties for ``ibf`` over plain sets (``difference_bound=None``: unknown ``d``)."""
    return (
        ibf_alice(SetSource(alice, ctx), difference_bound),
        ibf_bob(SetSource(bob, ctx), difference_bound),
    )


# ---------------------------------------------------------------------------
# The fold ladder: a known-bound exchange that starts small and grows by halves
# ---------------------------------------------------------------------------
#
# An IBLT costs O(d) cells for the d that actually separates the sets
# (Corollary 2.2), but a known bound sizes the table for the worst d.  The
# ladder sends the fold of the bound's table at a start rung; each time bob's
# peel fails (or his whole-set hash rejects it) he asks with one bit, and
# alice sends only the upper half of the next rung, from which bob rebuilds
# that rung.  Total table bits are the final rung's, not the bound's.


class _Grow:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "GROW"


#: Bob's growth request: the payload that asks alice for the next rung.
GROW = _Grow()

#: Alice's failure when asked to grow past the top rung.
GROWTH_REFUSED = "growth-refused"


class GrowOrCodec(PayloadCodec):
    """Bob's message after a ladder rung: a leading bit, set for a growth
    request (the whole message), clear ahead of ``inner``'s payload (what a
    composite sends once the difference verified)."""

    def __init__(self, inner: PayloadCodec) -> None:
        self.inner = inner

    def write(self, writer: BitWriter, payload: Any) -> None:
        writer.write(int(payload is GROW), 1)
        if payload is not GROW:
            self.inner.write(writer, payload)

    def read(self, reader: BitReader) -> Any:
        return GROW if reader.read(1) else self.inner.read(reader)

    def framing_bits(self, payload: Any) -> int:
        return 0 if payload is GROW else self.inner.framing_bits(payload)


def ladder_rungs(
    ctx: SetReconContext, difference_bound: int, size_gap: int
) -> tuple[tuple[IBLTParameters, ...], int]:
    """The rungs of a ladder session, smallest first, and its start rung's index.

    The top rung is ``ctx.table_params(difference_bound)``, from the shared
    bound and never from the peer.  The start is the smallest rung whose
    :func:`~repro.iblt.sizing.capacity_of` covers ``size_gap``, the sizes'
    difference and so a free lower bound on ``d``; the top when none does.
    """
    rungs = fold_ladder(ctx.table_params(difference_bound))
    return rungs, start_rung(rungs, size_gap)


def start_rung(rungs: Sequence[IBLTParameters], size_gap: int) -> int:
    """The index of the smallest rung whose
    :func:`~repro.iblt.sizing.capacity_of` covers ``size_gap``, a free lower
    bound on the difference; the top's when none does."""
    return next(
        (
            index
            for index, params in enumerate(rungs)
            if capacity_of(params.num_cells, params.num_hashes) >= size_gap
        ),
        len(rungs) - 1,
    )


def _start_codec(
    ctx: SetReconContext, rungs: tuple[IBLTParameters, ...], start: int
) -> TableWithHashCodec:
    """The start rung's table and the 64-bit whole-set hash: its cell count
    is shared (both sides know both sizes), so nothing says which rung."""
    return TableWithHashCodec(partial(resized, rungs[-1]), rungs[start].num_cells)


def growth_refused(source: SetSource | StoreView) -> PartyOutcome:
    """Alice's outcome for a growth request she will not answer."""
    return PartyOutcome(False, details={"failure": GROWTH_REFUSED, **source.outcome_details})


def ladder_alice(
    source: SetSource | StoreView,
    difference_bound: int,
    peer_size: int,
    request_codec: GrowOrCodec,
    *,
    label: str,
) -> Generator[Send | Receive, Any, tuple[PartyOutcome, Any]]:
    """Alice's side of the fold ladder.

    Sends the start rung's table with her whole-set hash (her size already
    crossed the wire), then the upper half of the next rung for each growth
    request, and refuses a request past the top.  Returns her outcome and
    bob's first message that is not a growth request, as ``request_codec``
    decodes it (:data:`END_OF_SESSION` when he ended the session instead).
    """
    ctx = source.ctx
    rungs, index = ladder_rungs(ctx, difference_bound, abs(source.size - peer_size))
    start = rungs[index]
    yield Send(
        label,
        start.size_bits + WORD_BITS,
        payload=(source.rung_table(difference_bound, start.num_cells), source.set_hash),
        codec=_start_codec(ctx, rungs, index),
    )
    while True:
        request = yield Receive(request_codec)
        if request is not GROW:
            return PartyOutcome(True, details=dict(source.outcome_details)), request
        index += 1
        if index == len(rungs):
            return growth_refused(source), END_OF_SESSION
        upper = source.rung_table(difference_bound, rungs[index].num_cells).upper_half()
        yield Send(
            f"{label} growth",
            upper.size_bits,
            payload=upper,
            codec=TableCodec(upper.params),
        )


def ladder_bob_difference(
    source: SetSource | StoreView,
    difference_bound: int,
    peer_size: int,
    request_codec: GrowOrCodec,
    *,
    label: str,
) -> Generator[Send | Receive, Any, tuple[PartyOutcome, DecodeResult | None]]:
    """Bob's side of the fold ladder, returning as :func:`ibf_bob_difference`.

    Peels each rung's difference and verifies it against alice's hash and
    ``peer_size``.  Below the top, a failed peel or a rejected hash sends a
    one-bit growth request under ``label`` (so a false peel on a small rung is
    caught and grown past), and alice's next rung is rebuilt from her fold and
    the upper half she answers with.  At the top the failure stands.
    """
    ctx = source.ctx
    rungs, index = ladder_rungs(ctx, difference_bound, abs(peer_size - source.size))
    message = yield Receive(_start_codec(ctx, rungs, index))
    if message is END_OF_SESSION:
        return aborted_outcome(), None
    alice_table, alice_hash = message
    while True:
        own = source.rung_table(difference_bound, alice_table.params.num_cells)
        decode = alice_table.subtract(own).try_decode()
        outcome, difference = _verified_difference(source, decode, alice_hash, peer_size)
        index += 1
        if difference is not None or index == len(rungs):
            return outcome, difference
        yield Send(label, 1, payload=GROW, codec=request_codec)
        upper = yield Receive(TableCodec(alice_table.params))
        if upper is END_OF_SESSION:
            return aborted_outcome(), None
        alice_table = alice_table.unfold(upper)


# ---------------------------------------------------------------------------
# Characteristic-polynomial interpolation (Theorem 2.3)
# ---------------------------------------------------------------------------


class CPIMessageCodec(PayloadCodec):
    """Codec for :class:`~repro.core.setrecon.cpi.CPIMessage`.

    The prime and the evaluation count follow from the shared
    ``(universe_size, difference_bound)``; only the evaluations and the set
    size travel (exactly the bits :attr:`CPIMessage.size_bits` charges).
    """

    def __init__(self, universe_size: int, difference_bound: int) -> None:
        self.universe_size = universe_size
        self.difference_bound = difference_bound
        self.prime = field_for_universe(universe_size, difference_bound).modulus

    def write(self, writer: BitWriter, payload: CPIMessage) -> None:
        if payload.prime != self.prime or payload.difference_bound != self.difference_bound:
            raise WireError("CPI message disagrees with the shared context")
        element_bits = bits_for_value(self.prime - 1)
        for evaluation in payload.evaluations:
            writer.write(evaluation, element_bits)
        writer.write_tail(payload.set_size)

    def read(self, reader: BitReader) -> CPIMessage:
        element_bits = bits_for_value(self.prime - 1)
        evaluations = tuple(
            reader.read(element_bits) for _ in range(self.difference_bound + 1)
        )
        set_size = reader.read_tail_int()
        return CPIMessage(set_size, evaluations, self.difference_bound, self.prime)


def cpi_alice(
    alice: Set[int], difference_bound: int, universe_size: int
) -> PartyGenerator:
    """Alice's side of the one-round CPI protocol."""
    message = cpi_encode(alice, difference_bound, universe_size)
    yield Send(
        "CPI evaluations",
        message.size_bits,
        payload=message,
        codec=CPIMessageCodec(universe_size, difference_bound),
    )
    return PartyOutcome(True)


def cpi_bob(
    bob: Set[int],
    difference_bound: int,
    universe_size: int,
    seed: int = 0,
) -> PartyGenerator:
    """Bob's side: rational interpolation and root extraction."""
    message = yield Receive(CPIMessageCodec(universe_size, difference_bound))
    if message is END_OF_SESSION:
        return aborted_outcome()
    success, recovered = cpi_decode(message, bob, universe_size, seed)
    return PartyOutcome(
        success,
        recovered,
        details={"difference_bound": difference_bound},
    )


def cpi_parties(
    alice: Set[int],
    bob: Set[int],
    difference_bound: int,
    universe_size: int,
    seed: int = 0,
) -> PartyPair:
    """Both parties for the ``cpi`` protocol.

    An element at or past ``universe_size`` is refused: the field holds its
    residue, which could decode as another element.
    """
    for items in (alice, bob):
        keys = checked_keys(items, array_above=None)
        refuse_repeats(items, keys)
        if keys and max(keys) >= universe_size:
            raise ParameterError("cpi set elements must be below universe_size")
    return (
        cpi_alice(alice, difference_bound, universe_size),
        cpi_bob(bob, difference_bound, universe_size, seed),
    )
