"""Party state machines for the graph and forest schemes (Sections 4-6).

Each scheme composes the flat set / set-of-sets parties with its local
signature and labeling computations (the pure transforms live next to the
data types in :mod:`repro.graphs`).  This module is the only spelling of each
protocol; :func:`repro.reconcile` runs each one by its registered name:

* ``labeled`` -- plain labeled-edge set reconciliation (Section 4).
* ``exhaustive`` -- the ``O(d log n)``-bit brute-force scheme (Theorem 4.3).
* ``degree_order`` -- degree-ordering signatures + cascading + edge recon
  (Theorem 5.2).
* ``degree_neighborhood`` -- degree-neighborhood signatures (Theorem 5.6).
* ``forest`` -- AHU signatures as a multiset of multisets over the Theorem
  3.11 parties (Theorem 6.1).

The party builders precompute the *shared context* (signature-set sizes,
multiplicity bounds, canonical primes) from both inputs -- the quantities the
paper's protocol statements treat as public parameters -- and hand each
party only its own side's data plus that context.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

import numpy as np

from repro.comm.bits import BitReader, BitWriter
from repro.comm.sizing import bits_for_value
from repro.core.setsofsets.types import SetOfSets
from repro.errors import ParameterError
from repro.field.prime import prime_at_least
from repro.graphs.degree_neighborhood import (
    _decode_signature,
    _encode_signature,
    signature_change_bound,
)
from repro.graphs.degree_order import _conforming_labels_for_bob, canonical_labels
from repro.graphs.exhaustive import (
    MAX_BRUTE_FORCE_VERTICES,
    _canonical_evaluation,
    _graphs_within_changes,
)
from repro.graphs.forest import (
    RootedForest,
    SIGNATURE_BITS,
    _edge_multisets,
    _reconstruct_forest,
    ahu_signatures,
)
from repro.graphs.graph import Graph
from repro.graphs.separation import (
    degree_neighborhood_signatures,
    degree_order_matrix,
    multiset_mask,
    signature_batch,
    signature_order,
)
from repro.hashing import derive_seed
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
    SetReconContext,
    SetSource,
    ibf_alice,
    ibf_bob,
    ibf_message_bits,
)
from repro.protocols.parties.setsofsets import (
    _cascade_plan,
    cascading_alice_known,
    cascading_bob_known,
    context_for,
    multisets_of_multisets_parties,
)
from repro.protocols.wire import PayloadCodec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.parties.setrecon import KeyArray


# ---------------------------------------------------------------------------
# Labeled graphs (Section 4): edge-set reconciliation
# ---------------------------------------------------------------------------


def _graph_from_peer_keys(num_vertices: int, keys: KeyArray) -> Graph | None:
    """The graph a peer's verified edge keys describe, or ``None`` when they
    describe none (a self-loop ``u*n + u``, or a key in the slack between
    ``n*n`` and the key width's power of two): the peer chose the keys."""
    try:
        return Graph.from_edge_keys(num_vertices, keys)
    except ParameterError:
        return None


def labeled_parties(
    alice: Graph,
    bob: Graph,
    difference_bound: int | None,
    seed: int,
) -> PartyPair:
    """Both parties for labeled-graph reconciliation."""
    if alice.num_vertices != bob.num_vertices:
        raise ParameterError("labeled reconciliation requires equal vertex counts")
    num_vertices = alice.num_vertices
    ctx = SetReconContext(alice.edge_key_universe, seed)

    def alice_party() -> PartyGenerator:
        outcome = yield from ibf_alice(
            SetSource(alice.edge_key_array(), ctx), difference_bound
        )
        return outcome

    def bob_party() -> PartyGenerator:
        outcome = yield from ibf_bob(SetSource(bob.edge_key_array(), ctx), difference_bound)
        if outcome.success:
            recovered = _graph_from_peer_keys(num_vertices, outcome.recovered)
            if recovered is None:
                return PartyOutcome(False, details={"failure": "edge-keys"})
            outcome.recovered = recovered
        return outcome

    return alice_party(), bob_party()


def _bob_edge_phase(
    bob: Graph,
    bob_labeling: dict[int, int],
    edge_ctx: SetReconContext,
    difference_bound: int,
    scheme_details: dict[str, int],
) -> PartyGenerator:
    """Bob's last step in Theorems 5.2 / 5.6: adopt Alice's labeling, then
    labeled edge reconciliation; ``scheme_details`` joins the outcome's."""
    num_vertices = bob.num_vertices
    bob_keys = bob.relabeled_edge_keys([bob_labeling[v] for v in range(num_vertices)])
    edge_outcome = yield from ibf_bob(SetSource(bob_keys, edge_ctx), difference_bound)
    if edge_outcome.aborted:
        return aborted_outcome()
    if not edge_outcome.success:
        return PartyOutcome(False, details={"failure": "edge-reconciliation"})
    recovered = _graph_from_peer_keys(num_vertices, edge_outcome.recovered)
    if recovered is None:
        return PartyOutcome(False, details={"failure": "edge-keys"})
    return PartyOutcome(
        True,
        recovered,
        details={
            "bob_canonical_labeling": bob_labeling,
            **scheme_details,
            "edge_bits": ibf_message_bits(
                edge_ctx, difference_bound, len(edge_outcome.recovered)
            ),
        },
    )


# ---------------------------------------------------------------------------
# Exhaustive brute-force scheme (Theorem 4.3)
# ---------------------------------------------------------------------------


class FingerprintCodec(PayloadCodec):
    """Codec for the ``(point, evaluation)`` canonical-form fingerprint."""

    def __init__(self, prime: int) -> None:
        self.prime = prime

    def write(self, writer: BitWriter, payload: tuple[int, int]) -> None:
        point, evaluation = payload
        bits = bits_for_value(self.prime - 1)
        writer.write(point, bits)
        writer.write(evaluation, bits)

    def read(self, reader: BitReader) -> tuple[int, int]:
        bits = bits_for_value(self.prime - 1)
        return reader.read(bits), reader.read(bits)


def exhaustive_parties(
    alice: Graph,
    bob: Graph,
    difference_bound: int,
    seed: int,
) -> PartyPair:
    """Both parties for the brute-force scheme (only feasible for tiny n)."""
    if alice.num_vertices != bob.num_vertices:
        raise ParameterError("graph reconciliation requires equal vertex counts")
    n = alice.num_vertices
    if n > MAX_BRUTE_FORCE_VERTICES:
        raise ParameterError(
            f"exhaustive reconciliation is limited to {MAX_BRUTE_FORCE_VERTICES} vertices"
        )
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    # q = n^{2d+3} as in the proof of Theorem 4.3 (with a small floor).
    prime = prime_at_least(max(17, n ** (2 * difference_bound + 3)))
    codec = FingerprintCodec(prime)

    def alice_party() -> PartyGenerator:
        # Both endpoints derive the identical evaluation point from the
        # shared protocol seed.  lint: allow[D301] seeded from protocol seed
        rng = random.Random(seed)
        point = rng.randrange(prime)
        evaluation = _canonical_evaluation(alice, point, prime)
        yield Send(
            "canonical-form fingerprint",
            2 * bits_for_value(prime - 1),
            payload=(point, evaluation),
            codec=codec,
        )
        return PartyOutcome(True)

    def bob_party() -> PartyGenerator:
        payload = yield Receive(codec)
        if payload is END_OF_SESSION:
            return aborted_outcome()
        point, evaluation = payload
        for candidate in _graphs_within_changes(bob, difference_bound):
            if _canonical_evaluation(candidate, point, prime) == evaluation:
                return PartyOutcome(True, candidate, details={"prime": prime})
        return PartyOutcome(
            False, details={"failure": "no-candidate-matched", "prime": prime}
        )

    return alice_party(), bob_party()


# ---------------------------------------------------------------------------
# Degree-ordering scheme (Theorem 5.2)
# ---------------------------------------------------------------------------


def degree_order_parties(
    alice: Graph,
    bob: Graph,
    difference_bound: int,
    num_top: int,
    seed: int,
) -> PartyPair:
    """Both parties for the degree-ordering scheme."""
    if alice.num_vertices != bob.num_vertices:
        raise ParameterError("graph reconciliation requires equal vertex counts")
    if num_top <= 0 or num_top > alice.num_vertices:
        raise ParameterError("num_top must lie in (0, num_vertices]")
    difference_bound = max(1, difference_bound)

    alice_top, alice_others, alice_matrix = degree_order_matrix(alice, num_top)
    bob_top, bob_others, bob_matrix = degree_order_matrix(bob, num_top)
    # Alice's row order serves both her signature set and her labeling.
    alice_order = signature_order(alice_matrix)
    alice_signature_set = signature_batch(alice_matrix, alice_order)
    bob_signature_set = signature_batch(bob_matrix, signature_order(bob_matrix))

    sig_ctx = context_for(
        alice_signature_set,
        bob_signature_set,
        num_top,
        derive_seed(seed, "degree-order-signatures"),
        max_child_size=num_top,
        t_star_ladder=False,  # alice's edge table follows the cascade
    )
    edge_ctx = SetReconContext(alice.edge_key_universe, derive_seed(seed, "degree-order-edges"))
    signature_bits = _cascade_plan(sig_ctx, difference_bound).total_bits

    def alice_party() -> PartyGenerator:
        try:
            alice_labels = canonical_labels(alice_top, alice_others, alice_matrix, alice_order)
        except ParameterError:
            return PartyOutcome(False, details={"failure": "alice-not-separated"})
        alice_keys = alice.relabeled_edge_keys(alice_labels)
        yield from cascading_alice_known(alice_signature_set, difference_bound, sig_ctx)
        yield from ibf_alice(SetSource(alice_keys, edge_ctx), difference_bound)
        return PartyOutcome(True)

    def bob_party() -> PartyGenerator:
        sig_outcome = yield from cascading_bob_known(
            bob_signature_set, difference_bound, sig_ctx
        )
        if sig_outcome.aborted:
            return aborted_outcome()
        if not sig_outcome.success:
            return PartyOutcome(
                False,
                details={"failure": "signature-reconciliation", **sig_outcome.details},
            )
        # Alice's signatures are peer data: one per non-top vertex, or no
        # labeling is a permutation.
        if sig_outcome.recovered.num_children != len(bob_others):
            return PartyOutcome(False, details={"failure": "conforming-match"})
        conforming = _conforming_labels_for_bob(
            sig_outcome.recovered, bob_others, bob_matrix, num_top, difference_bound
        )
        if conforming is None:
            return PartyOutcome(False, details={"failure": "conforming-match"})
        bob_labeling = {vertex: rank for rank, vertex in enumerate(bob_top)}
        bob_labeling.update(conforming)
        outcome = yield from _bob_edge_phase(
            bob, bob_labeling, edge_ctx, difference_bound,
            {"num_top": num_top, "signature_bits": signature_bits},
        )
        return outcome

    return alice_party(), bob_party()


# ---------------------------------------------------------------------------
# Degree-neighborhood scheme (Theorem 5.6)
# ---------------------------------------------------------------------------


def degree_neighborhood_parties(
    alice: Graph,
    bob: Graph,
    difference_bound: int,
    max_degree: int,
    seed: int,
) -> PartyPair:
    """Both parties for the degree-neighborhood scheme."""
    if alice.num_vertices != bob.num_vertices:
        raise ParameterError("graph reconciliation requires equal vertex counts")
    difference_bound = max(1, difference_bound)
    num_vertices = alice.num_vertices
    multiplicity_bound = num_vertices  # a degree value occurs at most n times
    change_bound = signature_change_bound(difference_bound, max_degree)

    alice_raw = degree_neighborhood_signatures(alice, max_degree)
    bob_raw = degree_neighborhood_signatures(bob, max_degree)
    alice_encoded = {
        vertex: _encode_signature(signature, multiplicity_bound)
        for vertex, signature in alice_raw.items()
    }
    bob_encoded = {
        vertex: _encode_signature(signature, multiplicity_bound)
        for vertex, signature in bob_raw.items()
    }
    alice_signature_set = SetOfSets(alice_encoded.values())
    bob_signature_set = SetOfSets(bob_encoded.values())

    pair_universe = (num_vertices + 1) * (multiplicity_bound + 1) + multiplicity_bound + 1
    max_child = max(
        1, alice_signature_set.max_child_size, bob_signature_set.max_child_size
    )
    sig_ctx = context_for(
        alice_signature_set,
        bob_signature_set,
        pair_universe,
        derive_seed(seed, "degree-neighborhood-signatures"),
        max_child_size=max_child,
        t_star_ladder=False,  # alice's edge table follows the cascade
    )
    edge_ctx = SetReconContext(
        alice.edge_key_universe, derive_seed(seed, "degree-neighborhood-edges")
    )
    signature_bits = _cascade_plan(sig_ctx, change_bound).total_bits

    def alice_party() -> PartyGenerator:
        if len(set(alice_encoded.values())) != num_vertices:
            return PartyOutcome(False, details={"failure": "alice-not-disjoint"})
        alice_order = sorted(alice_encoded, key=lambda v: sorted(alice_encoded[v]))
        # Vertex alice_order[rank] gets label rank: the inverse permutation.
        alice_keys = alice.relabeled_edge_keys(np.argsort(alice_order))
        yield from cascading_alice_known(alice_signature_set, change_bound, sig_ctx)
        yield from ibf_alice(SetSource(alice_keys, edge_ctx), difference_bound)
        return PartyOutcome(True)

    def bob_party() -> PartyGenerator:
        sig_outcome = yield from cascading_bob_known(
            bob_signature_set, change_bound, sig_ctx
        )
        if sig_outcome.aborted:
            return aborted_outcome()
        if not sig_outcome.success:
            return PartyOutcome(
                False,
                details={"failure": "signature-reconciliation", **sig_outcome.details},
            )
        alice_children = sig_outcome.recovered.sorted_children()
        if len(alice_children) != num_vertices:
            return PartyOutcome(False, details={"failure": "signature-count"})
        try:
            alice_signatures = [
                _decode_signature(child, multiplicity_bound) for child in alice_children
            ]
        except ParameterError:
            # The peer chose the children: a pair with count 0, or two pairs
            # for one degree, fits the universe and verifies, and is no multiset.
            return PartyOutcome(False, details={"failure": "signature-encoding"})
        stride = multiplicity_bound + 1  # decoded counts are at most the bound
        alice_masks = [multiset_mask(signature, stride) for signature in alice_signatures]
        rank_of_child = {child: rank for rank, child in enumerate(alice_children)}
        bob_labeling: dict[int, int] = {}
        used: set[int] = set()
        for vertex in bob.vertices():
            # Alice's children are distinct, so an equal one is at distance 0
            # and is the closest; only perturbed vertices scan her signatures.
            rank = rank_of_child.get(bob_encoded[vertex])
            if rank is None:
                mask = multiset_mask(bob_raw[vertex], stride)
                distances = [(candidate ^ mask).bit_count() for candidate in alice_masks]
                closest = min(distances)
                if closest > 2 * difference_bound:
                    return PartyOutcome(False, details={"failure": "conforming-match"})
                rank = distances.index(closest)
            if rank in used:
                return PartyOutcome(False, details={"failure": "conforming-match"})
            used.add(rank)
            bob_labeling[vertex] = rank
        outcome = yield from _bob_edge_phase(
            bob, bob_labeling, edge_ctx, difference_bound,
            {"max_degree": max_degree, "signature_bits": signature_bits},
        )
        return outcome

    return alice_party(), bob_party()


# ---------------------------------------------------------------------------
# Forest reconciliation (Theorem 6.1)
# ---------------------------------------------------------------------------


def forest_parties(
    alice: RootedForest,
    bob: RootedForest,
    difference_bound: int,
    max_depth: int | None,
    seed: int,
) -> PartyPair:
    """Both parties for forest reconciliation over the cascading protocol."""
    difference_bound = max(1, difference_bound)
    if max_depth is None:
        max_depth = max(alice.max_depth, bob.max_depth)
    max_depth = max(1, max_depth)

    alice_collection = _edge_multisets(alice, ahu_signatures(alice, seed))
    bob_collection = _edge_multisets(bob, ahu_signatures(bob, seed))

    # Each edge edit changes the signatures of at most ``sigma`` ancestors;
    # each changed signature perturbs two multisets (its own tagged entry and
    # its parent's child entry), and the edit itself moves one child entry.
    change_bound = difference_bound * (4 * max_depth + 2)
    universe = 1 << (SIGNATURE_BITS + 1)

    # The collections are multisets of multisets (isomorphic subtrees repeat),
    # so they travel over the Theorem 3.11 parties.
    collection_alice, collection_bob = multisets_of_multisets_parties(
        alice_collection, bob_collection, change_bound, universe, derive_seed(seed, "forest-sos")
    )

    def bob_party() -> PartyGenerator:
        outcome = yield from collection_bob
        if outcome.aborted:
            return aborted_outcome()
        if not outcome.success:
            return PartyOutcome(
                False,
                details={"failure": "collection-reconciliation", **outcome.details},
            )
        recovered_collection = outcome.recovered
        reconstructed = _reconstruct_forest(recovered_collection)
        if reconstructed is None:
            return PartyOutcome(False, details={"failure": "reconstruction"})
        # Local sanity check: the rebuilt forest must reproduce the recovered
        # collection (catches reconstruction bugs and signature collisions).
        rebuilt_collection = _edge_multisets(reconstructed, ahu_signatures(reconstructed, seed))
        verified = rebuilt_collection == recovered_collection
        return PartyOutcome(
            verified,
            reconstructed if verified else None,
            details={
                "max_depth": max_depth,
                "change_bound": change_bound,
                "failure": None if verified else "reconstruction-verification",
            },
        )

    return collection_alice, bob_party()
