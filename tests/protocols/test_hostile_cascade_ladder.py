"""The cascade's T* fold ladder against a hostile peer, and its growth path.

Alice sends T*, the explicit table that ends the cascade, at the smallest
rung whose capacity covers the parents' child-count gap; each one-bit growth
request from bob buys the next rung's upper half.  A peer's requests, sizes
and tables must never take alice past the top rung, which only the shared
plan sets, and a short upper half is a wire error, not a smaller table.
"""

import dataclasses
import random

import pytest

import repro
from repro.core.setsofsets.types import SetOfSets
from repro.iblt import IBLT
from repro.iblt.table import foldable
from repro.protocols.parties.setrecon import GROW, GROWTH_REFUSED
from repro.protocols.parties.setsofsets import (
    GROWTH_REQUEST_CODEC,
    CascadingMessageCodec,
    _cascade_plan,
    cascading_alice_known,
    cascading_bob_known,
    context_for,
)
from repro.protocols.party import END_OF_SESSION, PartyOutcome, Receive, Send
from repro.protocols.session import Session
from repro.protocols.transports import SerializingTransport
from repro.protocols.wire import TableCodec, WireError

UNIVERSE, CHILD_SIZE, SEED = 64, 8, 5
BOUND = 50  # a 192-cell T* at the top: rungs of 48 / 96 / 192 cells


def planted(changed, children=60, seed=0):
    """Equal child counts (so alice starts at the smallest rung) and
    ``changed`` children that differ by one element: ``2 * changed`` keys
    are left in T*."""
    rng = random.Random(seed)
    base = set()
    while len(base) < children:
        base.add(frozenset(rng.sample(range(UNIVERSE), CHILD_SIZE - 1)))
    alice = sorted(base, key=sorted)
    bob = list(alice)
    for index in range(changed):
        child = bob[index]
        extra = rng.choice([element for element in range(UNIVERSE) if element not in child])
        bob[index] = child | {extra}
    return SetOfSets(alice), SetOfSets(bob)


def ctx_for(alice, bob, **overrides):
    return context_for(alice, bob, UNIVERSE, SEED, max_child_size=CHILD_SIZE, **overrides)


def run(alice_party, bob_party):
    return Session(alice_party, bob_party, transport=SerializingTransport()).run()


def labels(result):
    return [message.label for message in result.transcript.messages]


def test_the_plan_has_a_ladder_that_starts_at_its_smallest_rung():
    alice, bob = planted(25)
    ctx = ctx_for(alice, bob)
    plan = _cascade_plan(ctx, BOUND)
    assert plan.num_levels == 0
    assert [params.num_cells for params in plan.t_star_rungs] == [48, 96, 192]
    assert plan.start_rung(ctx) == 0


def test_a_difference_past_the_start_rung_grows_and_verifies():
    alice, bob = planted(25)  # 50 keys: past the 48-cell rung's capacity of 22
    ctx = ctx_for(alice, bob)
    plan = _cascade_plan(ctx, BOUND)
    result = repro.reconcile(
        alice, bob, protocol="cascading", difference_bound=BOUND, universe_size=UNIVERSE,
        max_child_size=CHILD_SIZE, seed=SEED, transport=SerializingTransport(),
    )
    assert result.success and result.recovered == alice
    assert labels(result) == ["cascading level tables", "T* growth request", "T* upper half"]
    rungs = plan.t_star_rungs
    assert [message.size_bits for message in result.transcript.messages] == [
        plan.message_bits(0), 1, rungs[0].size_bits,
    ]
    # One growth is two more rounds, and fewer bits than the top rung.
    assert result.num_rounds == 3
    assert result.total_bits < plan.total_bits


def test_a_small_difference_peels_at_the_start_rung_in_one_round():
    alice, bob = planted(5)
    ctx = ctx_for(alice, bob)
    result = run(cascading_alice_known(alice, BOUND, ctx), cascading_bob_known(bob, BOUND, ctx))
    assert result.alice.success and result.bob.recovered == alice
    assert labels(result) == ["cascading level tables"]
    assert result.transcript.total_bits == _cascade_plan(ctx, BOUND).message_bits(0)


def test_a_growth_request_past_the_top_is_refused():
    alice, bob = planted(5)
    ctx = ctx_for(alice, bob)
    plan = _cascade_plan(ctx, BOUND)
    rungs = plan.t_star_rungs
    answers = []

    def greedy():
        yield Receive(CascadingMessageCodec(plan, 0))
        for index in range(len(rungs)):
            yield Send("T* growth request", 1, payload=GROW, codec=GROWTH_REQUEST_CODEC)
            answers.append((yield Receive(TableCodec(rungs[min(index, len(rungs) - 2)]))))
        return PartyOutcome(True)

    result = run(cascading_alice_known(alice, BOUND, ctx), greedy())
    halves = [m.size_bits for m in result.transcript.messages if m.label == "T* upper half"]
    # One upper half per rung above the start; the request past the top
    # ends alice's side with a refusal and nothing more is sent.
    assert halves == [params.size_bits for params in rungs[:-1]]
    assert answers[len(halves):] == [END_OF_SESSION]
    assert not result.alice.success
    assert result.alice.details["failure"] == GROWTH_REFUSED


def test_a_truncated_upper_half_is_a_wire_error():
    alice, bob = planted(5)
    plan = _cascade_plan(ctx_for(alice, bob), BOUND)
    top = IBLT.from_items(plan.t_star_params, plan.explicit_scheme.encode_many(alice.children))
    upper = top.upper_half()
    codec = TableCodec(upper.params)
    data = codec.encode(upper)
    assert codec.decode(data) == upper
    with pytest.raises(WireError, match="bit stream exhausted"):
        codec.decode(data[:-1])


def test_rung_cell_counts_come_only_from_the_shared_plan():
    for changed in (0, 5, 25):
        alice, bob = planted(changed)
        for gap in (0, 21, 22, 23, 10**6, 2**64):
            ctx = dataclasses.replace(ctx_for(alice, bob), child_count_gap=gap)
            plan = _cascade_plan(ctx, BOUND)
            one_rung = _cascade_plan(dataclasses.replace(ctx, t_star_ladder=False), BOUND)
            # The top is the one-rung plan's T* rounded to a foldable size,
            # and no gap starts alice past it.
            assert plan.t_star_params == foldable(one_rung.t_star_params)
            assert 0 <= plan.start_rung(ctx) < len(plan.t_star_rungs)
            assert (plan.start_rung(ctx) == 0) == (gap <= 22)


def test_a_t_star_of_another_size_is_refused_on_the_wire():
    alice, bob = planted(5)
    plan = _cascade_plan(ctx_for(alice, bob), BOUND)
    top = IBLT.from_items(plan.t_star_params, plan.explicit_scheme.encode_many(alice.children))
    with pytest.raises(WireError, match="T\\* parameters"):
        CascadingMessageCodec(plan, 0).encode(((), top, 0))


def tampered(party, first_message):
    """``party`` with its first message replaced by ``first_message(honest one)``."""
    reply = yield first_message(next(party))
    while True:
        try:
            message = party.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = yield message


def test_a_top_sized_t_star_is_read_as_the_start_rung_and_never_verifies():
    """Alice cannot pick T*'s size: bob reads the start rung's bits whatever
    she wrote, so a forged top-sized table is grown past and fails there."""
    alice, bob = planted(5)
    ctx = ctx_for(alice, bob)
    plan = _cascade_plan(ctx, BOUND)
    top = IBLT.from_items(plan.t_star_params, plan.explicit_scheme.encode_many(alice.children))

    def top_sized(honest):
        levels, _, verification = honest.payload
        return Send(
            honest.label, plan.total_bits, payload=(levels, top, verification),
            codec=CascadingMessageCodec(plan),
        )

    forging_alice = tampered(cascading_alice_known(alice, BOUND, ctx), top_sized)
    result = run(forging_alice, cascading_bob_known(bob, BOUND, ctx))
    assert not result.bob.success
    assert result.bob.details["failure"] == "verification-hash"
    assert labels(result).count("T* growth request") == 2  # up to the top


def test_a_rejected_hash_grows_to_the_top_and_fails_there():
    alice, bob = planted(5)
    ctx = ctx_for(alice, bob)

    def lying(honest):
        levels, t_star, verification = honest.payload
        return dataclasses.replace(honest, payload=(levels, t_star, verification ^ 1))

    lying_alice = tampered(cascading_alice_known(alice, BOUND, ctx), lying)
    result = run(lying_alice, cascading_bob_known(bob, BOUND, ctx))
    assert labels(result) == ["cascading level tables"] + [
        "T* growth request", "T* upper half"
    ] * 2
    assert not result.bob.success
    assert result.bob.details["failure"] == "verification-hash"
    assert result.bob.recovered is None


def test_a_child_peeled_with_both_signs_is_grown_past(monkeypatch):
    """A decode that names one of bob's children with both signs verifies
    under the O(d) hash (its flip and echo cancel): it is refused, so the
    start rung grows, and the next rung's honest peel succeeds."""
    alice, bob = planted(5)
    ctx = ctx_for(alice, bob)
    plan = _cascade_plan(ctx, BOUND)
    shared = next(child for child in bob.children if child in alice.children)
    echo = plan.explicit_scheme.encode(shared)
    honest = IBLT.try_decode
    calls = []

    def decode_with_an_echo(table):
        result = honest(table)
        if not calls:
            result.positive.add(echo)
            result.negative.add(echo)
        calls.append(table.params.num_cells)
        return result

    monkeypatch.setattr(IBLT, "try_decode", decode_with_an_echo)
    result = run(cascading_alice_known(alice, BOUND, ctx), cascading_bob_known(bob, BOUND, ctx))
    assert calls == [48, 96]
    assert labels(result) == ["cascading level tables", "T* growth request", "T* upper half"]
    assert result.alice.success and result.bob.recovered == alice


def test_one_rung_callers_keep_alice_free_to_speak_next():
    """Without the ladder (the graph schemes' signature phase, each doubling
    attempt) T* is today's table, sent whole, and alice never waits."""
    alice, bob = planted(25)
    ctx = ctx_for(alice, bob, t_star_ladder=False)
    plan = _cascade_plan(ctx, BOUND)
    assert len(plan.t_star_rungs) == 1 and plan.start_rung(ctx) == 0
    result = run(cascading_alice_known(alice, BOUND, ctx), cascading_bob_known(bob, BOUND, ctx))
    assert labels(result) == ["cascading level tables"]
    assert result.transcript.total_bits == plan.total_bits
