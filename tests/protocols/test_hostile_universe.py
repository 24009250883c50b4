"""A peer's child with an element past the universe is a labelled failure.

A packed explicit slot and a child IBLT's key hold ``ceil(log2 u)`` element
bits, so when ``u`` is not a power of two a forged key can carry an element
``>= u``.  Here alice runs at ``u = 1024`` and bob at ``u = 1000``: both
contexts have the same element bits, key bits, seeds and plans, so every
message alice sends is well formed for bob.  Her parent holds 1023, which
no child of bob's universe can.  Every set-of-sets bob that decodes
children from peer tables must end with the ``child-outside-universe``
failure, not a raise and not a success.
"""

import dataclasses
import random

import pytest

from repro.core.setsofsets.types import SetOfSets
from repro.protocols.parties.setsofsets import (
    OUTSIDE_UNIVERSE,
    _cascade_plan,
    cascading_alice_known,
    cascading_bob_known,
    context_for,
    iblt_of_iblts_alice_known,
    iblt_of_iblts_bob_known,
    multiround_alice_known,
    multiround_bob_known,
    naive_alice_known,
    naive_bob_known,
)
from repro.protocols.session import Session
from repro.protocols.transports import SerializingTransport

ALICE_UNIVERSE, BOB_UNIVERSE, CHILD_SIZE, SEED = 1024, 1000, 8, 5


def parents(changed, child_size=CHILD_SIZE, element=1023):
    """Bob's parent, and alice's with ``changed`` of his children given
    ``element`` in place of one of theirs."""
    rng = random.Random(1)
    bob = set()
    while len(bob) < 40:
        bob.add(frozenset(rng.sample(range(BOB_UNIVERSE - 1), child_size)))
    bob = sorted(bob, key=sorted)
    alice = [child - {min(child)} | {element} for child in bob[:changed]] + bob[changed:]
    return SetOfSets(alice), SetOfSets(bob)


def contexts(alice, bob, child_size=CHILD_SIZE, **overrides):
    ctx = context_for(alice, bob, ALICE_UNIVERSE, SEED, max_child_size=child_size, **overrides)
    return ctx, dataclasses.replace(ctx, universe_size=BOB_UNIVERSE)


def run(alice_party, bob_party):
    return Session(alice_party, bob_party, transport=SerializingTransport()).run()


def assert_refused(result):
    assert not result.bob.success
    assert result.bob.recovered is None
    assert result.bob.details["failure"] == OUTSIDE_UNIVERSE


#: Case -> (h, bound, the plan's level count, its T* rungs): the child is
#: recovered by a child-IBLT level, by T* at one rung, and by T* on a
#: two-rung ladder (bob rejects the start rung, grows, and fails at the top).
CASCADES = {"levels": (64, 1, 1, 0), "t-star": (8, 4, 0, 1), "t-star-ladder": (8, 16, 0, 2)}


@pytest.mark.parametrize("case", CASCADES)
def test_the_contexts_share_every_width_and_the_plan_runs_the_path(case):
    child_size, bound, levels, rungs = CASCADES[case]
    alice_ctx, bob_ctx = contexts(*parents(1, child_size), child_size)
    alice_plan, bob_plan = _cascade_plan(alice_ctx, bound), _cascade_plan(bob_ctx, bound)
    assert alice_plan.schemes == bob_plan.schemes
    assert alice_plan.level_params == bob_plan.level_params
    assert alice_plan.t_star_rungs == bob_plan.t_star_rungs
    assert alice_plan.explicit_scheme.slot_bits == bob_plan.explicit_scheme.slot_bits
    assert (bob_plan.num_levels, len(bob_plan.t_star_rungs)) == (levels, rungs)


@pytest.mark.parametrize("case", CASCADES)
def test_the_cascade_refuses_a_child_past_the_universe(case):
    child_size, bound, _, _ = CASCADES[case]
    alice, bob = parents(1, child_size)
    alice_ctx, bob_ctx = contexts(alice, bob, child_size)
    assert_refused(
        run(
            cascading_alice_known(alice, bound, alice_ctx),
            cascading_bob_known(bob, bound, bob_ctx),
        )
    )


def multiround_alice(alice, bound, ctx):
    return multiround_alice_known(alice, bound, bound, ctx)


@pytest.mark.parametrize(
    "alice_party, bob_party",
    [
        (naive_alice_known, naive_bob_known),
        (iblt_of_iblts_alice_known, iblt_of_iblts_bob_known),
        (multiround_alice, multiround_bob_known),
    ],
    ids=["naive", "iblt-of-iblts", "multiround"],
)
def test_the_other_protocols_refuse_a_child_past_the_universe(alice_party, bob_party):
    alice, bob = parents(2)
    alice_ctx, bob_ctx = contexts(alice, bob)
    assert_refused(run(alice_party(alice, 4, alice_ctx), bob_party(bob, 4, bob_ctx)))


@pytest.mark.parametrize("case", CASCADES)
def test_the_same_change_inside_the_universe_reconciles(case):
    child_size, bound, _, _ = CASCADES[case]
    alice, bob = parents(1, child_size, element=BOB_UNIVERSE - 1)
    _, bob_ctx = contexts(alice, bob, child_size)
    result = run(
        cascading_alice_known(alice, bound, bob_ctx), cascading_bob_known(bob, bound, bob_ctx)
    )
    assert result.bob.success and result.bob.recovered == alice
