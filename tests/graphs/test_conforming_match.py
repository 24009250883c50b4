"""Bob's matching rule in the degree-ordering scheme (Theorem 5.2).

``_conforming_labels_for_bob`` settles a vertex whose signature Alice also
holds by a dict lookup and scans her signatures only for the rest.  The
all-pairs loop it replaced is kept here verbatim as the oracle; ``conforming``
hands Bob's ``{vertex: signature}`` to it as the bit matrix the parties hold.
"""

import random
from collections import Counter

import pytest

from repro.core.setsofsets import SetOfSets
from repro.graphs import degree_order
from repro.graphs.degree_order import _conforming_labels_for_bob
from repro.core.setrecon.multiset import multiset_symmetric_difference
from repro.graphs.separation import multiset_mask, signature_mask, signature_matrix


def quadratic_conforming_labels(alice_signatures, bob_signatures, num_top, difference_bound):
    """The implementation before the exact-match lookup: every Bob vertex
    against every Alice signature, on frozenset symmetric differences."""
    alice_list = alice_signatures.sorted_children()
    label_of_signature = {
        signature: num_top + rank for rank, signature in enumerate(alice_list)
    }
    assigned = {}
    used = set()
    for vertex, signature in bob_signatures.items():
        best = None
        best_distance = None
        tied = False
        for candidate in alice_list:
            distance = len(candidate ^ signature)
            if best_distance is None or distance < best_distance:
                best, best_distance, tied = candidate, distance, False
            elif distance == best_distance:
                tied = True
        if best is None or best_distance > difference_bound or tied:
            return None
        label = label_of_signature[best]
        if label in used:
            return None
        used.add(label)
        assigned[vertex] = label
    return assigned


def conforming(alice_signatures, bob_signatures, num_top, difference_bound):
    """``_conforming_labels_for_bob`` on Bob's vertices and signature matrix."""
    return _conforming_labels_for_bob(
        alice_signatures,
        list(bob_signatures),
        signature_matrix(bob_signatures.values(), num_top),
        num_top,
        difference_bound,
    )


def sig(*indices):
    return frozenset(indices)


# Sorted order (and so label - num_top): {0,1,2} < {3,4,5} < {6,7,8,9}.
ALICE = SetOfSets([sig(0, 1, 2), sig(3, 4, 5), sig(6, 7, 8, 9)])
NUM_TOP = 10


class TestOutcomes:
    def test_exact_hits(self):
        bob = {21: sig(3, 4, 5), 20: sig(0, 1, 2), 22: sig(6, 7, 8, 9)}
        assert conforming(ALICE, bob, NUM_TOP, 0) == {20: 10, 21: 11, 22: 12}

    def test_residue_hit_within_bound(self):
        bob = {20: sig(0, 1, 2), 21: sig(3, 4), 22: sig(6, 7, 8, 9, 5)}
        assert conforming(ALICE, bob, NUM_TOP, 1) == {20: 10, 21: 11, 22: 12}

    def test_closest_is_tied(self):
        # {0,1,2,3,4,5} is three away from both of Alice's first two signatures.
        assert conforming(ALICE, {20: sig(0, 1, 2, 3, 4, 5)}, NUM_TOP, 3) is None

    def test_closest_is_too_far(self):
        bob = {20: sig(0, 1)}
        assert conforming(ALICE, bob, NUM_TOP, 1) == {20: 10}
        assert conforming(ALICE, bob, NUM_TOP, 0) is None

    def test_two_vertices_claim_one_label(self):
        for bob in (
            {20: sig(0, 1, 2), 21: sig(0, 1)},           # exact hit, then residue
            {20: sig(0, 1), 21: sig(0, 1, 2)},           # residue, then exact hit
            {20: sig(0, 1), 21: sig(0, 2)},              # residue twice
        ):
            assert conforming(ALICE, bob, NUM_TOP, 1) is None

    def test_no_alice_signatures(self):
        assert conforming(SetOfSets.empty(), {}, NUM_TOP, 2) == {}
        assert conforming(SetOfSets.empty(), {20: sig(0)}, NUM_TOP, 2) is None

    def test_labels_keep_bob_vertex_order(self):
        bob = {22: sig(6, 7, 8), 20: sig(0, 1, 2), 21: sig(3, 4, 5)}
        assert list(conforming(ALICE, bob, NUM_TOP, 1)) == [22, 20, 21]


def planted_family(rng, num_top, count, difference_bound):
    """Distinct random signatures for Alice; Bob's are hers with a few
    perturbed by up to ``difference_bound + 1`` flips, and now and then a
    near-duplicate of another vertex's, so every outcome occurs."""
    alice = set()
    while len(alice) < count:
        alice.add(frozenset(i for i in range(num_top) if rng.random() < 0.4))
    bob = {}
    for vertex, signature in enumerate(sorted(alice, key=sorted), start=num_top):
        roll = rng.random()
        if roll < 0.15:
            flips = rng.sample(range(num_top), rng.randrange(1, difference_bound + 2))
            signature = signature ^ frozenset(flips)
        elif roll < 0.2 and bob:
            signature = rng.choice(list(bob.values())) ^ frozenset([rng.randrange(num_top)])
        bob[vertex] = signature
    return SetOfSets(alice), bob


@pytest.mark.parametrize("num_top", [5, 30, 70])
def test_matches_the_quadratic_oracle(num_top):
    rng = random.Random(num_top)
    outcomes = set()
    for _ in range(150):
        difference_bound = rng.randrange(0, 4)
        count = rng.randrange(1, min(25, 2 ** num_top))
        alice, bob = planted_family(rng, num_top, count, difference_bound)
        expected = quadratic_conforming_labels(alice, bob, num_top, difference_bound)
        got = conforming(alice, bob, num_top, difference_bound)
        assert got == expected
        if expected is not None:
            assert list(got) == list(expected)
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_residue_scan_only_without_an_exact_hit(monkeypatch):
    scanned = []
    closest_label = degree_order._closest_rank

    def recording(mask, alice_masks, difference_bound):
        scanned.append(mask)
        return closest_label(mask, alice_masks, difference_bound)

    monkeypatch.setattr(degree_order, "_closest_rank", recording)
    bob = {20: sig(0, 1, 2), 21: sig(3, 4), 22: sig(6, 7, 8, 9), 23: sig(3, 4, 5)}
    assert conforming(ALICE, bob, NUM_TOP, 1) is None  # 21 and 23 collide
    assert scanned == [signature_mask(sig(3, 4))]


class TestMasks:
    def test_signature_mask_crosses_64_bits(self):
        assert signature_mask([]) == 0
        assert signature_mask([0, 3]) == 0b1001
        assert signature_mask([69, 0]) == (1 << 69) | 1
        first, second = sig(0, 64, 69), sig(0, 1, 69)
        assert (signature_mask(first) ^ signature_mask(second)).bit_count() == len(first ^ second)

    def test_multiset_mask_distance_is_the_multiset_difference(self):
        rng = random.Random(4)
        for _ in range(200):
            first, second = (
                Counter({rng.randrange(12): rng.randrange(1, 8) for _ in range(rng.randrange(6))})
                for _ in range(2)
            )
            distance = (multiset_mask(first, 8) ^ multiset_mask(second, 8)).bit_count()
            assert distance == multiset_symmetric_difference(first, second)
