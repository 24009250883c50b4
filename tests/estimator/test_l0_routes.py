"""The L0 estimator's two update routes, its linearity, its wire frame and
its accuracy, against a per-element list-of-lists reference (the spec:
``mix64`` level hash, trailing zeros for the deepest level, a second ``mix64``
per level for the bucket, counters mod 4) and a field-by-field reference
encoder of the compact frame."""

import random
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm.bits import BitReader, BitWriter
from repro.comm.sizing import bits_for_value
from repro.errors import ParameterError
from repro.estimator import L0Estimator, l0
from repro.hashing import derive_seed, fingerprint64, mix64
from repro.hashing.mix import MASK64
from repro.protocols.parties.setrecon import bound_for_estimate
from repro.protocols.wire import EstimatorCodec, WireError

CUTOFF = l0._BATCH_CUTOFF
#: Small shapes keep every level busy; 3 x 9 counters are 54 bits, which is
#: neither a whole number of bytes nor of hex digits.
SHAPES = [(32, 128), (6, 16), (3, 9), (70, 8)]


def reference_counters(seed, num_levels, buckets, updates):
    """Counters after ``updates`` (``(element, side)`` pairs), one at a time."""
    level_seed = derive_seed(seed, "l0-level") & MASK64
    bucket_root = derive_seed(seed, "l0-bucket")
    counters = [[0] * buckets for _ in range(num_levels)]
    for element, side in updates:
        level_hash = mix64(fingerprint64(element) ^ level_seed)
        trailing = (level_hash & -level_hash).bit_length() - 1 if level_hash else num_levels
        for level in range(min(trailing, num_levels - 1) + 1):
            bucket = mix64(level_hash ^ mix64(bucket_root + level)) % buckets
            counters[level][bucket] = (counters[level][bucket] + (1 if side == 1 else -1)) % 4
    return counters


def reference_frame(counters):
    """The compact frame, one field at a time: the number of levels up to the
    deepest non-zero counter, then per level a flag bit and the shorter of
    dense (2 bits per counter) and sparse (a count, then an (index, value)
    pair per non-zero counter), sparse only when strictly shorter."""
    num_levels, buckets = len(counters), len(counters[0])
    sent = max((level + 1 for level, row in enumerate(counters) if any(row)), default=0)
    count_bits, index_bits = bits_for_value(buckets), bits_for_value(buckets - 1)
    writer = BitWriter()
    writer.write(sent, bits_for_value(num_levels))
    for row in counters[:sent]:
        occupied = [(index, value) for index, value in enumerate(row) if value]
        if count_bits + len(occupied) * (index_bits + 2) < 2 * buckets:
            writer.write(1, 1)
            writer.write(len(occupied), count_bits)
            for index, value in occupied:
                writer.write(index, index_bits)
                writer.write(value, 2)
        else:
            writer.write(0, 1)
            for value in row:
                writer.write(value, 2)
    return writer


def reference_wire(counters):
    return reference_frame(counters).getvalue()


def reference_query(counters, reliable_fraction=0.25):
    """Scale the non-zero count of the first level at most a quarter full."""
    threshold = int(reliable_fraction * len(counters[0]))
    occupied = [sum(1 for value in row if value) for row in counters]
    for level, count in enumerate(occupied):
        if count <= threshold:
            return count if level == 0 else max(1, count) << level
    return max(1, occupied[-1]) << (len(counters) - 1)


def wire(estimator):
    writer = BitWriter()
    estimator.write_wire(writer)
    assert writer.bit_length == estimator.size_bits
    return writer.getvalue()


@st.composite
def key_sets(draw, wide=False):
    """A key set of a size straddling the batch cutoff (drawn from a seeded
    generator, so large sets stay cheap to shrink), some with a >= 2^64 key."""
    size = draw(st.sampled_from([0, 1, 7, CUTOFF - 1, CUTOFF, CUTOFF + 1, 3 * CUTOFF]))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    keys = {rng.getrandbits(rng.choice([8, 40, 64])) for _ in range(size)}
    if wide:
        keys.add(rng.getrandbits(200) | 1 << 64)
    return keys


# -- (a) the routes agree, counter for counter ---------------------------------------


@pytest.mark.parametrize("cutoff", [CUTOFF, 1 << 62], ids=["as-sized", "always-scalar"])
@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide-key"])
@given(data=st.data(), shape=st.sampled_from(SHAPES), seed=st.integers(0, 1 << 32))
@settings(max_examples=40, deadline=None)
def test_update_all_equals_a_loop_of_update(cutoff, wide, data, shape, seed):
    ones, twos = data.draw(key_sets(wide)), data.draw(key_sets(wide))
    with mock.patch.object(l0, "_BATCH_CUTOFF", cutoff):
        batched = L0Estimator(seed, *shape)
        batched.update_all(ones, 1)
        batched.update_all(twos, 2)
    looped = L0Estimator(seed, *shape)
    for element in ones:
        looped.update(element, 1)
    for element in twos:
        looped.update(element, 2)
    updates = [(element, 1) for element in ones] + [(element, 2) for element in twos]
    assert wire(batched) == wire(looped) == reference_wire(
        reference_counters(seed, *shape, updates)
    )


def test_the_array_route_is_taken_exactly_above_the_cutoff():
    taken = []
    with mock.patch.object(
        L0Estimator, "_add_array", lambda self, keys, delta: taken.append(len(keys))
    ):
        estimator = L0Estimator(1)
        estimator.update_all(range(CUTOFF), 1)
        estimator.update_all(range(CUTOFF + 1), 1)
        estimator.update_all(list(range(CUTOFF)) + [1 << 64], 1)
        estimator.update(5, 1)
    assert taken == [CUTOFF + 1]


@pytest.mark.parametrize("size", [1, 3 * CUTOFF])
def test_a_zero_level_hash_is_sampled_into_every_level(size):
    """``mix64(0) == 0``: the key equal to the level seed has no lowest set
    bit, and 70 levels is past what a 64-bit shift can express."""
    seed, shape = 11, (70, 8)
    zero_hashed = derive_seed(seed, "l0-level") & MASK64
    keys = [zero_hashed] + list(range(size - 1))
    estimator = L0Estimator(seed, *shape)
    estimator.update_all(keys, 1)
    counters = reference_counters(seed, *shape, [(key, 1) for key in keys])
    assert all(any(row) for row in counters)
    assert wire(estimator) == reference_wire(counters)


def one_pass_and_scalar(seed, num_levels, keys, side):
    """The counters the one-pass array route and the per-key scalar route leave."""
    delta = 1 if side == 1 else 3
    one_pass, scalar = L0Estimator(seed, num_levels), L0Estimator(seed, num_levels)
    one_pass._add_array(np.array(keys, dtype=np.uint64), delta)
    for key in keys:
        scalar._add_one(key, delta)
    return bytes(one_pass._counters), bytes(scalar._counters)


@pytest.mark.parametrize("side", [1, 2])
@pytest.mark.parametrize("num_levels", [4, 32])
@pytest.mark.parametrize("size", [0, 1, 300, 5000])
def test_the_one_pass_route_equals_the_scalar_route(side, num_levels, size):
    """At 4 levels about one key in eight reaches the cap; at 32 none does
    but the zero-hash key, which is in the batch."""
    seed = 23
    keys = random.Random(size).sample(range(1 << 40), size)
    if size:
        keys[0] = derive_seed(seed, "l0-level") & MASK64  # level hash 0
    one_pass, scalar = one_pass_and_scalar(seed, num_levels, keys, side)
    assert one_pass == scalar
    assert any(one_pass) == bool(size)


@pytest.mark.parametrize("side", [1, 2])
def test_a_key_past_the_top_level_lands_on_every_level(side):
    """A level hash with at least ``num_levels`` trailing zeros is capped at
    the top level, on both routes."""
    seed, num_levels = 5, 4
    level_seed = derive_seed(seed, "l0-level") & MASK64
    key = next(
        key for key in range(1, 1 << 16) if mix64(key ^ level_seed) & ((1 << num_levels) - 1) == 0
    )
    one_pass, scalar = one_pass_and_scalar(seed, num_levels, [key], side)
    assert one_pass == scalar
    assert one_pass.count(1 if side == 1 else 3) == num_levels


# -- the one typed refusal -------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, 1.5, "a", None])
@pytest.mark.parametrize("padding", [0, 3 * CUTOFF], ids=["scalar", "array"])
def test_bad_elements_are_refused_before_any_counter_moves(bad, padding):
    estimator = L0Estimator(3)
    with pytest.raises(ParameterError):
        estimator.update_all(list(range(padding)) + [bad], 1)
    with pytest.raises(ParameterError):
        estimator.update(bad, 2)
    with pytest.raises(ParameterError):
        estimator.update_all(range(padding + 1), 3)
    assert estimator.size_bits == bits_for_value(estimator.num_levels)
    assert wire(estimator) == bytes(1)


@pytest.mark.parametrize("foreign", [None, 7])
def test_merge_with_a_foreign_object_is_a_parameter_error(foreign):
    with pytest.raises(ParameterError):
        L0Estimator(3).merge(foreign)


# -- (b) linearity ---------------------------------------------------------------------


@given(keys=key_sets(), shape=st.sampled_from(SHAPES))
@settings(max_examples=40, deadline=None)
def test_both_sides_of_one_set_cancel_to_zero(keys, shape):
    estimator = L0Estimator(9, *shape)
    estimator.update_all(keys, 1)
    estimator.update_all(keys, 2)
    assert not any(wire(estimator))
    assert estimator.query() == 0


@given(ones=key_sets(), twos=key_sets(), shape=st.sampled_from(SHAPES))
@settings(max_examples=40, deadline=None)
def test_merge_equals_one_estimator_fed_both(ones, twos, shape):
    first, second, both = (L0Estimator(9, *shape) for _ in range(3))
    first.update_all(ones, 1)
    second.update_all(twos, 2)
    both.update_all(ones, 1)
    both.update_all(twos, 2)
    merged = first.merge(second)
    assert wire(merged) == wire(both)
    assert merged.query() == both.query()
    assert wire(second.merge(first)) == wire(both)
    # What arrives off the wire merges and queries as what was sent.
    received = L0Estimator(9, *shape)
    received.read_wire(BitReader(wire(first)))
    assert received.query() == first.query()
    assert wire(received.merge(second)) == wire(both)


# -- (c) the wire is the compact frame -------------------------------------------------


@given(
    seed=st.integers(0, 1 << 32),
    fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    shape=st.sampled_from(SHAPES),
    depth=st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_wire_is_the_reference_compact_frame(seed, fill, shape, depth):
    """Counters of a fill up to a drawn depth (zero below it, so trailing
    levels are dropped): decode(reference) re-encodes to the same bits, costs
    what was written, and queries and merges as the counters do."""
    num_levels, buckets = shape
    rng = random.Random(seed)
    filled = round(depth * num_levels)
    counters = [
        [rng.randrange(1, 4) if level < filled and rng.random() < fill else 0
         for _ in range(buckets)]
        for level in range(num_levels)
    ]
    frame = reference_frame(counters)
    estimator = L0Estimator(1, *shape)
    estimator.read_wire(BitReader(frame.getvalue()))
    assert wire(estimator) == frame.getvalue()
    assert estimator.size_bits == frame.bit_length
    assert estimator.size_bits <= 2 * num_levels * buckets + num_levels + bits_for_value(
        num_levels
    )
    # read_wire put every counter where query and merge look for it.
    assert estimator.query() == reference_query(counters)
    doubled = estimator.merge(estimator)
    assert wire(doubled) == reference_wire(
        [[2 * value % 4 for value in row] for row in counters]
    )


@pytest.mark.parametrize("shape", SHAPES)
def test_an_empty_estimator_costs_only_the_header(shape):
    estimator = L0Estimator(1, *shape)
    assert estimator.size_bits == bits_for_value(shape[0])
    assert wire(estimator) == reference_wire([[0] * shape[1]] * shape[0])
    received = L0Estimator(1, *shape)
    received.read_wire(BitReader(wire(estimator)))
    assert received.query() == 0 and wire(received) == wire(estimator)


# -- (d) hostile frames are typed refusals -----------------------------------------------

#: Counters of B = 10 take 4-bit counts and 4-bit indices: a sparse level of
#: c counters is 4 + 6c bits against 20 dense, so it holds at most two, and
#: indices 10-15 fit the field but not the level.
HOSTILE_SHAPE = (4, 10)


def frame_of(*fields):
    """Bytes of ``(value, bits)`` fields, MSB first."""
    writer = BitWriter()
    for value, bits in fields:
        writer.write(value, bits)
    return writer.getvalue()


def sparse_level(*entries):
    """The fields of a sparse level of HOSTILE_SHAPE: flag, count, entries."""
    fields = [(1, 1), (len(entries), 4)]
    for index, value in entries:
        fields += [(index, 4), (value, 2)]
    return fields


#: ``{case: (frame fields, what the refusal names)}``.
HOSTILE_FRAMES = {
    "more-levels-than-the-shape": ([(5, 3)] + sparse_level((1, 1)) * 5, "5 of 4 levels"),
    "last-level-all-zero-sparse": (
        [(2, 3)] + sparse_level((1, 1)) + sparse_level(), "last level"
    ),
    "last-level-all-zero-dense": ([(1, 3), (0, 1), (0, 20)], "shorter sparse form"),
    "dense-level-with-a-shorter-sparse-form": (
        [(1, 3), (0, 1), (1, 20)], "shorter sparse form"
    ),
    "sparse-count-past-the-buckets": (
        [(1, 3)] + sparse_level(*[(index, 1) for index in range(11)]),
        "not shorter than dense",
    ),
    "sparse-not-shorter-than-dense": (
        [(1, 3)] + sparse_level((1, 1), (2, 1), (3, 1)), "not shorter than dense"
    ),
    "index-past-the-buckets": ([(1, 3)] + sparse_level((12, 1)), r"\(12, 1\) out of"),
    "repeated-index": ([(1, 3)] + sparse_level((5, 1), (5, 2)), r"\(5, 2\) out of"),
    "decreasing-indices": ([(1, 3)] + sparse_level((6, 1), (5, 1)), r"\(5, 1\) out of"),
    "zero-value": ([(1, 3)] + sparse_level((3, 0)), r"\(3, 0\) out of"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_a_malformed_frame_is_a_wire_error(name):
    fields, reason = HOSTILE_FRAMES[name]
    codec = EstimatorCodec(lambda seed: L0Estimator(seed, *HOSTILE_SHAPE), 1)
    with pytest.raises(WireError, match=reason):
        codec.decode(frame_of(*fields))


def test_the_frame_helpers_make_frames_the_reader_accepts():
    """The refusals above are the named defect's, not the harness's."""
    codec = EstimatorCodec(lambda seed: L0Estimator(seed, *HOSTILE_SHAPE), 1)
    valid = [(2, 3)] + sparse_level((1, 1)) + sparse_level((5, 1), (6, 3))
    decoded = codec.decode(frame_of(*valid))
    assert codec.encode(decoded) == frame_of(*valid)
    assert decoded.size_bits == 3 + 2 * 5 + 3 * 6


@pytest.mark.parametrize("shape", [HOSTILE_SHAPE, (32, 128)])
@given(data=st.binary(max_size=48))
@settings(max_examples=150, deadline=None)
def test_arbitrary_bytes_decode_canonically_or_are_refused(shape, data):
    """Any bytes are either a WireError or the canonical frame of what they
    decode to: re-encoding gives back exactly the bits that were read."""
    codec = EstimatorCodec(lambda seed: L0Estimator(seed, *shape), 1)
    try:
        decoded = codec.decode(data)
    except WireError:
        return
    bits = decoded.size_bits
    assert bits <= 8 * len(data)
    prefix = int.from_bytes(data, "big") >> (8 * len(data) - bits)
    assert int.from_bytes(codec.encode(decoded), "big") >> (-bits % 8) == prefix


def test_wire_fields_follow_a_shared_stream():
    """The field starts where the stream is, not at a byte boundary."""
    estimator = L0Estimator(4, 3, 9)
    estimator.update_all(range(200), 1)
    writer = BitWriter()
    writer.write(5, 3)
    estimator.write_wire(writer)
    writer.write(1, 1)
    reader = BitReader(writer.getvalue())
    assert reader.read(3) == 5
    decoded = L0Estimator(4, 3, 9)
    decoded.read_wire(reader)
    assert reader.read(1) == 1
    assert wire(decoded) == wire(estimator)


# -- (e) accuracy ------------------------------------------------------------------------


@pytest.mark.parametrize("difference", [4, 16, 64, 1024])
def test_accuracy_over_200_seeds(difference):
    size, trials = 4096, 200
    ratios, covered = [], 0
    for seed in range(trials):
        pool = random.Random(seed * 7919 + difference).sample(range(1 << 40), size + difference)
        shared = pool[: size - difference // 2]
        alice, bob = L0Estimator(seed), L0Estimator(seed)
        alice.update_all(shared + pool[size - difference // 2 : size], 1)
        bob.update_all(shared + pool[size:], 2)
        estimate = alice.merge(bob).query()
        ratios.append(estimate / difference)
        covered += bound_for_estimate(estimate) >= difference
    assert 0.5 <= statistics.median(ratios) <= 2.0
    assert covered >= 0.95 * trials
