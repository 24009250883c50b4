"""Party state machines for plain set reconciliation (Section 2 protocols).

Splits :mod:`repro.core.setrecon.ibf` and :mod:`repro.core.setrecon.cpi`
into explicit alice/bob generators:

* ``ibf`` known-``d``: one message (IBLT + whole-set hash + set size).
* ``ibf`` unknown-``d``: bob's difference estimator, then the known-``d``
  exchange with a self-describing difference-bound header (32 bits of
  documented framing -- on a real wire bob cannot derive the bound alice
  computed from the merged estimator).
* ``cpi``: one message of characteristic-polynomial evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Set

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
from repro.errors import ParameterError
from repro.estimator import L0Estimator, SetDifferenceEstimator
from repro.hashing import Checksum, derive_seed
from repro.iblt import IBLT, IBLTParameters
from repro.protocols.party import (
    END_OF_SESSION,
    PartyGenerator,
    PartyOutcome,
    PartyPair,
    Receive,
    Send,
    aborted_outcome,
)
from repro.protocols.wire import EstimatorCodec, PayloadCodec, WireError

#: Width of the self-describing difference-bound header used by the
#: unknown-``d`` variants (documented framing; see docs/protocols.md).
BOUND_HEADER_BITS = 32


def set_verification_hash(seed: int, elements: Iterable[int]) -> int:
    """Whole-set verification hash (guards against undetected checksum failures).

    The :meth:`~repro.hashing.checksum.Checksum.of_set` fold, so
    ``H(S ^ D) == H(S) ^ H(D)``: the sketch store keeps it live in O(d).
    """
    return Checksum(derive_seed(seed, "set-verification"), WORD_BITS).of_set(elements)


@dataclass(frozen=True)
class SetReconContext:
    """Shared knowledge both parties derive the ``ibf`` exchange from."""

    universe_size: int
    seed: int
    num_hashes: int = 4
    backend: str | None = None
    estimator_factory: Callable[[int], SetDifferenceEstimator] | None = None
    safety_factor: float = 2.0

    def table_params(self, difference_bound: int) -> IBLTParameters:
        return IBLTParameters.for_difference(
            max(1, difference_bound),
            max_element_bits(self.universe_size),
            derive_seed(self.seed, "setrecon"),
            self.num_hashes,
        )

    @property
    def estimator_seed(self) -> int:
        return derive_seed(self.seed, "setrecon-estimator")

    def make_estimator(self) -> SetDifferenceEstimator:
        factory = self.estimator_factory if self.estimator_factory else L0Estimator
        return factory(self.estimator_seed)

    def estimator_codec(self) -> EstimatorCodec:
        factory = self.estimator_factory if self.estimator_factory else L0Estimator
        return EstimatorCodec(factory, self.estimator_seed)


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
        table = IBLT.deserialize(
            params, reader.read(params.size_bits), backend=self.ctx.backend
        )
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


def ibf_alice_known(
    alice: Set[int],
    difference_bound: int,
    ctx: SetReconContext,
    *,
    self_describing: bool = False,
) -> PartyGenerator:
    """Alice's side of the one-round IBLT protocol (Corollary 2.2)."""
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    if ctx.universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    params = ctx.table_params(difference_bound)
    alice_table = IBLT.from_items(params, alice, backend=ctx.backend)
    alice_hash = set_verification_hash(ctx.seed, alice)
    yield Send(
        "set IBLT",
        ibf_message_bits(ctx, difference_bound, len(alice)),
        payload=(alice_table, alice_hash, len(alice)),
        codec=IBFMessageCodec(ctx, difference_bound, self_describing),
    )
    return PartyOutcome(True)


def ibf_bob_known(
    bob: Set[int],
    difference_bound: int | None,
    ctx: SetReconContext,
    *,
    self_describing: bool = False,
) -> PartyGenerator:
    """Bob's side: delete his elements, peel, verify the reconstruction."""
    payload = yield Receive(IBFMessageCodec(ctx, difference_bound, self_describing))
    if payload is END_OF_SESSION:
        return aborted_outcome()
    alice_table, alice_hash, alice_size = payload
    difference_table = alice_table.copy()
    difference_table.delete_batch(bob)
    decode = difference_table.try_decode()
    if not decode.success:
        return PartyOutcome(False, details={"failure": "iblt-peel"})
    recovered = apply_difference(bob, decode.positive, decode.negative)
    verified = (
        set_verification_hash(ctx.seed, recovered) == alice_hash
        and len(recovered) == alice_size
    )
    return PartyOutcome(
        verified,
        recovered if verified else None,
        details={
            "difference_found": decode.symmetric_difference_size(),
            "failure": None if verified else "verification-hash",
        },
    )


def ibf_alice_unknown(alice: Set[int], ctx: SetReconContext) -> PartyGenerator:
    """Alice's side of the two-round protocol (Corollary 3.2)."""
    bob_estimator = yield Receive(ctx.estimator_codec())
    if bob_estimator is END_OF_SESSION:
        return aborted_outcome()
    alice_estimator = ctx.make_estimator()
    alice_estimator.update_all(alice, 2)
    estimate = bob_estimator.merge(alice_estimator).query()
    bound = max(1, int(round(ctx.safety_factor * estimate)) + 1)
    yield from ibf_alice_known(alice, bound, ctx, self_describing=True)
    return PartyOutcome(
        True,
        details={"estimated_difference": estimate, "difference_bound_used": bound},
    )


def ibf_bob_unknown(bob: Set[int], ctx: SetReconContext) -> PartyGenerator:
    """Bob's side: send the estimator, then run the known-``d`` exchange."""
    bob_estimator = ctx.make_estimator()
    bob_estimator.update_all(bob, 1)
    yield Send(
        "difference estimator",
        bob_estimator.size_bits,
        payload=bob_estimator,
        codec=ctx.estimator_codec(),
    )
    outcome = yield from ibf_bob_known(bob, None, ctx, self_describing=True)
    return outcome


def ibf_parties(
    alice: Set[int],
    bob: Set[int],
    difference_bound: int | None,
    ctx: SetReconContext,
) -> PartyPair:
    """Both parties for the ``ibf`` protocol (known or unknown ``d``)."""
    if difference_bound is None:
        return ibf_alice_unknown(alice, ctx), ibf_bob_unknown(bob, ctx)
    return (
        ibf_alice_known(alice, difference_bound, ctx),
        ibf_bob_known(bob, difference_bound, ctx),
    )


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
    alice: Set[int],
    difference_bound: int,
    universe_size: int,
    *,
    field_kernel: str | None = None,
) -> PartyGenerator:
    """Alice's side of the one-round CPI protocol."""
    message = cpi_encode(
        alice, difference_bound, universe_size, field_kernel=field_kernel
    )
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
    *,
    field_kernel: str | None = None,
) -> PartyGenerator:
    """Bob's side: rational interpolation and root extraction."""
    message = yield Receive(CPIMessageCodec(universe_size, difference_bound))
    if message is END_OF_SESSION:
        return aborted_outcome()
    success, recovered = cpi_decode(
        message, bob, universe_size, seed, field_kernel=field_kernel
    )
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
    *,
    field_kernel: str | None = None,
) -> PartyPair:
    """Both parties for the ``cpi`` protocol."""
    return (
        cpi_alice(alice, difference_bound, universe_size, field_kernel=field_kernel),
        cpi_bob(bob, difference_bound, universe_size, seed, field_kernel=field_kernel),
    )
