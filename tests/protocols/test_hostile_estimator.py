"""A peer's estimator frame is the only thing that sizes the unknown-``d`` table.

Bob's frame is well-formed however he fills it, and one with every counter
set to 1 saturates every level: ``query()`` returns ``128 << 31 = 2**38``.
Alice must not size a table for twice that.  Every unknown-``d`` prelude
clamps the bound to the largest difference its inputs can have -- the
universe for ``ibf``, the child count ``s`` for ``naive`` and ``multiround``
-- and to its 32-bit header, checked here before any table is built (an
unclamped bound of ``2**39 + 1`` asks for about a trillion cells).
"""

import dataclasses
from unittest import mock

import pytest

from repro.comm.bits import BitWriter
from repro.comm.sizing import bits_for_value
from repro.core.setsofsets.types import SetOfSets
from repro.estimator import L0Estimator
from repro.protocols.options import ReconcileOptions
from repro.protocols.parties import setsofsets
from repro.protocols.registry import get
from repro.protocols.parties.setrecon import (
    BOUND_HEADER_BITS,
    SAFETY_FACTOR,
    SetReconContext,
    SetSource,
    bound_for_estimate,
    estimated_bound,
    ibf_alice,
    ibf_bob,
    ibf_message_bits,
)
from repro.protocols.party import END_OF_SESSION, Receive
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


#: Where each protocol first turns the bound into table parameters, and the
#: ceiling its prelude must clamp a forged estimate to (a universe of 2**10
#: elements; five children a side).
FIRST_SIZING = {
    "ibf": (SetReconContext, "table_params", 1 << 10),
    "naive": (setsofsets, "_naive_parent_params", 5),
    "multiround": (setsofsets, "_hash_iblt_params", 5),
}


@pytest.mark.parametrize("protocol", sorted(FIRST_SIZING))
def test_every_prelude_clamps_a_forged_estimate_before_sizing_a_table(protocol):
    owner, sizing, ceiling = FIRST_SIZING[protocol]
    if protocol == "ibf":
        alice, bob = set(range(0, 200, 2)), set(range(0, 210, 2))
    else:
        alice = SetOfSets([{child, child + 100} for child in range(5)])
        bob = SetOfSets([{child, child + 200} for child in range(5)])
    options = ReconcileOptions(seed=5, universe_size=1 << 10)
    alice_party, _ = get(protocol).build(alice, bob, options)
    sized = []

    def stop_at_sizing(_ctx, bound):
        sized.append(bound)
        raise BoundTooLarge(bound)

    receive = next(alice_party)
    with mock.patch.object(owner, sizing, stop_at_sizing), pytest.raises(BoundTooLarge):
        alice_party.send(receive.codec.decode(saturated_frame()))
    assert sized == [ceiling]


# -- the shared prelude, driven by hand ------------------------------------------------


def run_prelude(peer, ceiling=1 << 20, own=None):
    """What :func:`estimated_bound` returns when ``peer`` is received."""
    ctx = SetReconContext(1 << 20, seed=5)
    own = ctx.make_estimator() if own is None else own
    prelude = estimated_bound(own, ctx.estimator_codec(), ceiling)
    receive = next(prelude)
    assert isinstance(receive, Receive)
    with pytest.raises(StopIteration) as stopped:
        prelude.send(peer)
    return stopped.value.value


def test_the_prelude_returns_none_when_the_session_ends():
    assert run_prelude(END_OF_SESSION) is None


@pytest.mark.parametrize("size", [0, 1, 6, 40, 300])
def test_an_honest_estimate_is_inflated_and_not_clamped(size):
    ctx = SetReconContext(1 << 20, seed=5)
    peer, own = ctx.make_estimator(), ctx.make_estimator()
    peer.update_all(range(size), 1)
    own.update_all(range(size // 2), 2)
    estimate = peer.merge(own).query()
    bound = max(1, round(SAFETY_FACTOR * estimate) + 1)
    assert bound_for_estimate(estimate) == bound
    assert run_prelude(peer, own=own) == (estimate, bound)


def test_the_prelude_clamps_to_the_ceiling_and_the_header():
    forged = SetReconContext(1 << 20, seed=5).estimator_codec().decode(saturated_frame())
    assert run_prelude(forged, ceiling=7) == (2**38, 7)
    assert run_prelude(forged, ceiling=1 << 40) == (2**38, 2**BOUND_HEADER_BITS - 1)


#: An honest pair whose estimate sits under every ceiling: one element (for
#: ``ibf``) or one child (for the sets of sets, 40 a side) differs.
HONEST_KEYS = {
    "ibf": ("estimated_difference", "difference_bound_used"),
    "naive": ("estimated_differing_children", "differing_children_bound_used"),
    "multiround": ("estimated_differing_children", "differing_children_bound_used"),
}


@pytest.mark.parametrize("protocol", sorted(HONEST_KEYS))
def test_an_honest_session_runs_on_the_unclamped_bound(protocol):
    estimate_key, bound_key = HONEST_KEYS[protocol]
    if protocol == "ibf":
        alice, bob = set(range(0, 200, 2)), set(range(0, 202, 2))
        ceiling = 1 << 10
    else:
        alice = SetOfSets([{child, child + 100} for child in range(40)])
        bob = SetOfSets([{child, child + 100} for child in range(39)] + [{39, 300}])
        ceiling = 40
    options = ReconcileOptions(seed=5, universe_size=1 << 10)
    result = run_session(*get(protocol).build(alice, bob, options))
    assert result.success
    estimate = result.details[estimate_key]
    assert 1 <= estimate
    bound = bound_for_estimate(estimate)
    assert result.details[bound_key] == bound < ceiling
