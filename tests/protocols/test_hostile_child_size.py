"""A peer's child of more than ``h`` elements is a labelled failure.

A cascade level carries children as child IBLTs, and a T* bitmap key one
bit per element of the universe: both hold a set of any size, so bob can
decode a forged child larger than ``h``.  From a level that raised
:class:`CapacityError` out of the session, since T* re-encodes the recovered
children as explicit keys, which hold at most ``h``; from T* bob could
accept it.  In both cases alice's first child has one element more than
bob's, and bob must end with ``child-over-max-size``:

* ``level``: ``u = 2^20``, ``h = 128``, bound 16 (a plan of one level plus
  T*); the level recovers the child, and alice's T* leaves it out (she could
  not encode it either);
* ``t-star-bitmap``: ``u = 32``, ``h = 8``, bound 4 (a plan of T* alone,
  bitmap keys); alice writes the child's bitmap into T*.

The other set-of-sets bobs refuse the same child at ``u = 32``, ``h = 8``:
the naive one at the parent (a 9-element bitmap key has the layout of an
8-element one, and with the matching parent hash it used to verify), and
the IBLT-of-IBLTs and multiround ones after recovering it from a child IBLT
or a CPI payload, which hold a set of any size.  Those two alices refuse
such a child of their own before sending anything.
"""

import random
from dataclasses import replace
from itertools import count, islice

import pytest

from repro.core.setsofsets.encoding import ExplicitChildScheme, encode_children, parent_hash
from repro.core.setsofsets.types import FlatSetOfSets, SetOfSets
from repro.errors import ParameterError
from repro.iblt import IBLT
from repro.protocols.party import PartyOutcome, Send
from repro.protocols.parties.setsofsets import (
    OVER_MAX_SIZE,
    CascadingMessageCodec,
    _cascade_plan,
    cascading_bob_known,
    context_for,
    iblt_of_iblts_parties,
    multiround_parties,
    naive_parties,
)
from repro.protocols.session import Session

SEED = 5

#: Case -> (u, h, bound, the plan's level count).
CASES = {"level": (1 << 20, 128, 16, 1), "t-star-bitmap": (32, 8, 4, 0)}


def parents(case, added, removed=0):
    """Bob's 40 children of ``h`` elements, and alice's: the same, with
    ``added`` elements more and ``removed`` fewer in the first."""
    universe, child_size, _, _ = CASES[case]
    rng = random.Random(1)
    bob = set()
    while len(bob) < 40:
        bob.add(frozenset(rng.sample(range(universe), child_size)))
    bob = sorted(bob, key=sorted)
    spare = islice((e for e in count() if e not in bob[0]), added)
    alice = [bob[0] - set(sorted(bob[0])[:removed]) | set(spare), *bob[1:]]
    return SetOfSets(alice), SetOfSets(bob)


def context(case, alice, bob):
    universe, child_size, _, _ = CASES[case]
    return context_for(alice, bob, universe, SEED, max_child_size=child_size)


def t_star_keys(case, plan, children):
    """What alice puts into T*: every child of at most ``h`` elements, and
    on a bitmap plan also a larger one (its key has the same layout)."""
    scheme = plan.explicit_scheme
    if case == "level":
        fitting = [child for child in children if len(child) <= scheme.max_child_size]
        return scheme.encode_batch(fitting)
    wider = ExplicitChildScheme(scheme.universe_size, max(map(len, children)))
    assert wider.uses_bitmap and wider.key_bits == scheme.key_bits
    return wider.encode_batch(children)


def forging_alice(case, alice, ctx):
    """Alice's cascading message: every child in the levels, and the T* of
    :func:`t_star_keys`."""
    plan = _cascade_plan(ctx, CASES[case][2])
    index = plan.start_rung(ctx)
    flat = FlatSetOfSets.of(alice)
    levels = []
    for keys, params in zip(encode_children(plan.schemes, flat), plan.level_params):
        table = IBLT(params)
        table.insert_batch(keys)
        levels.append(table)
    t_star = IBLT(plan.t_star_rungs[index])
    t_star.insert_batch(t_star_keys(case, plan, alice.sorted_children()))
    yield Send(
        "cascading level tables",
        plan.message_bits(index),
        payload=(levels, t_star, parent_hash(flat, ctx.seed)),
        codec=CascadingMessageCodec(plan, index),
    )
    return PartyOutcome(True)


def run(case, alice, bob):
    ctx = context(case, alice, bob)
    bob_party = cascading_bob_known(bob, CASES[case][2], ctx)
    return Session(forging_alice(case, alice, ctx), bob_party).run()


@pytest.mark.parametrize("case", CASES)
def test_the_plan_runs_the_path(case):
    _, _, bound, levels = CASES[case]
    plan = _cascade_plan(context(case, *parents(case, 1)), bound)
    assert (plan.num_levels, len(plan.t_star_rungs)) == (levels, 1)
    assert plan.explicit_scheme.uses_bitmap == (case == "t-star-bitmap")


@pytest.mark.parametrize("case", CASES)
def test_the_cascade_refuses_a_child_past_h(case):
    result = run(case, *parents(case, 1))
    assert not result.bob.success
    assert result.bob.recovered is None
    assert result.bob.details["failure"] == OVER_MAX_SIZE


@pytest.mark.parametrize("case", CASES)
def test_a_change_within_h_reconciles_from_the_same_alice(case):
    alice, bob = parents(case, 1, removed=1)
    result = run(case, alice, bob)
    assert result.bob.success and result.bob.recovered == alice


#: The other bobs: protocol -> (party builder, the session's bound).
BOBS = {
    "naive": (naive_parties, 2),
    "iblt_of_iblts": (iblt_of_iblts_parties, 4),
    "multiround": (multiround_parties, 4),
}


def run_protocol(protocol, alice, bob):
    """One session of ``protocol`` at ``u = 32``: bob on ``h = 8``, alice on
    a context that lets her encode a 9-element child."""
    build, bound = BOBS[protocol]
    ctx = context("t-star-bitmap", alice, bob)
    alice_party, _ = build(alice, bob, bound, replace(ctx, max_child_size=9))
    _, bob_party = build(alice, bob, bound, ctx)
    return Session(alice_party, bob_party).run()


@pytest.mark.parametrize("protocol", BOBS)
def test_every_bob_refuses_a_child_past_h(protocol):
    alice, bob = parents("t-star-bitmap", 1)
    assert max(map(len, alice.children)) == 9
    result = run_protocol(protocol, alice, bob)
    assert not result.bob.success
    assert result.bob.recovered is None
    assert result.bob.details["failure"] == OVER_MAX_SIZE


@pytest.mark.parametrize("protocol", BOBS)
def test_the_same_alice_reconciles_a_change_within_h(protocol):
    alice, bob = parents("t-star-bitmap", 1, removed=1)
    result = run_protocol(protocol, alice, bob)
    assert result.bob.success and result.bob.recovered == alice


@pytest.mark.parametrize(
    "protocol, bound", [("iblt_of_iblts", 4), ("multiround", 4), ("multiround", None)]
)
def test_alice_refuses_her_own_child_past_h_before_sending(protocol, bound):
    alice, bob = parents("t-star-bitmap", 1)
    build = BOBS[protocol][0]
    alice_party, _ = build(alice, bob, bound, context("t-star-bitmap", alice, bob))
    with pytest.raises(ParameterError, match="size 9 exceeds max_child_size 8"):
        next(alice_party)
