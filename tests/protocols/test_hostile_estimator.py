"""A peer's estimator frame is the only thing that sizes the unknown-``d`` table.

Bob's frame is well-formed however he fills it, and one with every counter
set to 1 saturates every level: ``query()`` returns ``128 << 31 = 2**38``.
Alice must not size a table for twice that.  The difference can never exceed
the universe, and the bound has to fit its 32-bit header, so ``ibf_alice``
clamps it to both -- checked here before any table is built (an unclamped
bound of ``2**39 + 1`` asks for about a trillion cells).
"""

import dataclasses

import pytest

from repro.comm.bits import BitWriter
from repro.comm.sizing import bits_for_value
from repro.estimator import L0Estimator
from repro.protocols.parties.setrecon import (
    BOUND_HEADER_BITS,
    SetReconContext,
    SetSource,
    ibf_alice,
    ibf_bob,
    ibf_message_bits,
)
from repro.protocols.session import run_session
from repro.protocols.transports import SerializingTransport


class BoundTooLarge(Exception):
    """Raised in place of building a table larger than the test allows."""


def saturated_frame():
    """The default L0 shape with every level sent, dense, every counter 1."""
    shape = L0Estimator(0)
    writer = BitWriter()
    writer.write(shape.num_levels, bits_for_value(shape.num_levels))
    for _ in range(shape.num_levels):
        writer.write(int("01" * shape.buckets_per_level, 2), 1 + 2 * shape.buckets_per_level)
    return writer.getvalue()


@dataclasses.dataclass(frozen=True)
class ForgingSource(SetSource):
    """Bob's source, sending the saturated frame as his estimator."""

    def estimator(self, side):
        return self.ctx.estimator_codec().decode(saturated_frame())


@dataclasses.dataclass(frozen=True)
class GuardedSource(SetSource):
    """Alice's source, refusing a table past ``limit`` before building it."""

    limit: int = 0
    sized: list = dataclasses.field(default_factory=list)

    def owned_table(self, difference_bound):
        self.sized.append(difference_bound)
        if difference_bound > self.limit:
            raise BoundTooLarge(difference_bound)
        return super().owned_table(difference_bound)


def forged_session(universe_size, limit):
    ctx = SetReconContext(universe_size, seed=5)
    alice, bob = set(range(0, 200, 2)), set(range(0, 210, 2))
    source = GuardedSource(alice, ctx, limit=limit)
    return ctx, source, lambda: run_session(
        ibf_alice(source, None),
        ibf_bob(ForgingSource(bob, ctx), None),
        transport=SerializingTransport(),
    )


def test_the_forged_frame_saturates_the_estimate():
    ctx = SetReconContext(1 << 10, seed=5)
    forged = ctx.estimator_codec().decode(saturated_frame())
    assert forged.query() == 2**38
    assert forged.merge(ctx.make_estimator()).query() == 2**38


def test_a_forged_frame_sizes_no_table_past_the_universe():
    universe = 1 << 10
    ctx, source, run = forged_session(universe, limit=universe)
    result = run()
    assert source.sized == [universe]
    assert result.details["estimated_difference"] == 2**38
    assert result.details["difference_bound_used"] == universe
    # The oversized but honest table still reconciles; it was charged as sized.
    assert result.success and result.recovered == set(range(0, 200, 2))
    charged = {message.label: message.size_bits for message in result.transcript.messages}
    assert charged["set IBLT"] == ibf_message_bits(ctx, universe, 100)


def test_past_a_32_bit_universe_the_bound_header_clamps():
    # A table for 2**32 - 1 is still far too large to build here: stop at the
    # guard whatever the bound, and look at what Alice asked for.
    _, source, run = forged_session(1 << 40, limit=0)
    with pytest.raises(BoundTooLarge):
        run()
    assert source.sized == [2**BOUND_HEADER_BITS - 1]
