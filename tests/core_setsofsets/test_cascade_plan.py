"""The cascade's plan: the cheapest truncation of Algorithm 2.

``_cascade_plan`` builds the ``L = ceil(log2 min(d, h))`` child-IBLT levels
and, for every cut ``j = 0 .. L``, the plan that runs levels ``1..j`` and
ends in one explicit table (T*) with level ``j + 1``'s capacity; cut ``L``
is the whole cascade, whose T* is present only when ``d >= h``.  It sends the
candidate with the fewest bits, and the fewest levels on a tie.
"""

import itertools

import pytest

from repro import reconcile
from repro.protocols.parties.setsofsets import (
    SetsOfSetsContext,
    _cascade_candidates,
    _cascade_plan,
    context_for,
)
from repro.workloads import sets_of_sets_instance

UNIVERSE = 1 << 20

#: ``{shape: (h, levels run, T* sent)}`` at u = 2^20, d = 24 and 32 children,
#: where the whole cascade has 5 levels.  At h = 28 one explicit table is the
#: cheapest plan (its 588-bit child is narrower than even the level-1 child
#: IBLT); at h = 256 three levels and then an explicit table; at h = 1024
#: every level, and no T* since d < h.
SHAPES = {
    "cut-0": (28, 0, True),
    "three-levels-then-explicit": (256, 3, True),
    "all-levels-no-t-star": (1024, 5, False),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_plan_shape_is_reachable_and_recovers_alice(shape):
    max_child_size, levels, sends_t_star = SHAPES[shape]
    instance = sets_of_sets_instance(32, 16, UNIVERSE, 12, seed=5, max_children_touched=6)
    ctx = context_for(
        instance.alice, instance.bob, UNIVERSE, 2018, max_child_size=max_child_size
    )
    plan = _cascade_plan(ctx, 24)
    assert len(_cascade_candidates(ctx, 24)) == 6  # cuts 0 .. 5
    assert (plan.num_levels, plan.t_star_params is not None) == (levels, sends_t_star)

    result = reconcile(
        instance.alice, instance.bob, protocol="cascading", difference_bound=24,
        universe_size=UNIVERSE, max_child_size=max_child_size, seed=2018,
    )
    assert result.success and result.recovered == instance.alice
    # One round: the levels, T* at its start rung and the parent hash.
    assert result.num_rounds == 1
    assert result.total_bits == plan.message_bits(plan.start_rung(ctx))
    assert result.details["num_levels"] == levels
    assert result.details["used_t_star"] == sends_t_star


@pytest.mark.parametrize(
    "universe_size, max_child_size",
    [(8, 1), (64, 2), (512, 5), (512, 17), (UNIVERSE, 28), (UNIVERSE, 256)],
)
def test_the_plan_is_the_cheapest_candidate(universe_size, max_child_size):
    for bound, num_children in itertools.product((0, 1, 2, 5, 24, 100, 256), (1, 8, 200)):
        ctx = SetsOfSetsContext(
            universe_size, 7, max_child_size=max_child_size,
            max_num_children=num_children,
        )
        candidates = _cascade_candidates(ctx, bound)
        plan = _cascade_plan(ctx, bound)
        assert all(plan.total_bits <= other.total_bits for other in candidates)
        # On a tie, the plan that runs the fewest levels.
        cheapest = [other for other in candidates if other.total_bits == plan.total_bits]
        assert plan.num_levels == min(other.num_levels for other in cheapest)
        # Cut j runs j levels; every cut but the last ends in an explicit table.
        assert [other.num_levels for other in candidates] == list(range(len(candidates)))
        assert all(other.t_star_params is not None for other in candidates[:-1])


@pytest.mark.parametrize(
    "universe_size, child_size, bound",
    list(itertools.product((64, 512, UNIVERSE), (2, 12, 28), (1, 4, 24, 64))),
)
def test_cascading_is_never_wider_than_naive(universe_size, child_size, bound):
    instance = sets_of_sets_instance(
        24, child_size, universe_size, 6, seed=3, max_children_touched=3
    )
    charged = {
        protocol: reconcile(
            instance.alice, instance.bob, protocol=protocol, difference_bound=bound,
            universe_size=universe_size, max_child_size=instance.max_child_size,
            seed=11,
        ).total_bits
        for protocol in ("cascading", "naive")
    }
    assert charged["cascading"] <= charged["naive"]
