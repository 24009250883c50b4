"""Round-trip property tests for the wire layer.

Every codec must satisfy ``decode(encode(m)) == m``, and every encoding must
fit the byte budget its transcript charge implies:
``len(encode(m)) <= ceil((size_bits + framing_bits(m)) / 8)``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.parties import (
    REQUEST_CODEC,
    KVSummaryCodec,
    KVVerdictCodec,
    pull_request_bits,
    summary_bits,
    verdict_bits,
)
from repro.comm.bits import BitReader, BitWriter
from repro.comm.sizing import bits_for_value
from repro.core.setrecon.cpi import cpi_encode
from repro.core.setsofsets.types import SetOfSets
from repro.errors import ParameterError
from repro.estimator import L0Estimator
from repro.iblt import IBLT, IBLTParameters
from repro.protocols.parties.setrecon import (
    GROW,
    CPIMessageCodec,
    IBFMessageCodec,
    SetReconContext,
    set_verification_hash,
)
from repro.protocols.parties.setsofsets import (
    CHILD_HASH_BITS,
    CascadingMessageCodec,
    ChildPayload,
    MultiroundPayloadsCodec,
    MultiroundRound2Codec,
    SetsOfSetsContext,
    _cascade_plan,
    _hash_iblt_params,
    _multiround_child_estimator,
    _multiround_child_params,
    _naive_codec,
    _naive_parent_params,
)
from repro.protocols.parties.graphs import FingerprintCodec
from repro.protocols.wire import (
    NULL_CODEC,
    EstimatorCodec,
    TableCodec,
    WireError,
)

sets_of_small_ints = st.sets(st.integers(min_value=0, max_value=199), max_size=40)


def assert_within_budget(codec, payload, size_bits):
    data = codec.encode(payload)
    budget = (size_bits + codec.framing_bits(payload) + 7) // 8
    assert len(data) <= budget, (len(data), budget)
    return data


class TestBitStream:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=80), st.data()),
            max_size=8,
        )
    )
    def test_fixed_fields_roundtrip(self, specs):
        writer = BitWriter()
        values = []
        for bits, data in specs:
            value = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
            values.append((value, bits))
            writer.write(value, bits)
        reader = BitReader(writer.getvalue())
        for value, bits in values:
            assert reader.read(bits) == value

    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=0, max_value=77),
    )
    def test_tail_roundtrip_any_prefix(self, value, prefix_bits):
        writer = BitWriter()
        writer.write((1 << prefix_bits) - 1, prefix_bits)
        writer.write_tail(value)
        reader = BitReader(writer.getvalue())
        assert reader.read(prefix_bits) == (1 << prefix_bits) - 1
        assert reader.read_tail_int() == value

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=40))
    def test_tail_costs_no_extra_bytes(self, value, prefix_bits):
        writer = BitWriter()
        writer.write(0, prefix_bits)
        writer.write_tail(value)
        charged = prefix_bits + bits_for_value(value)
        assert len(writer.getvalue()) == (charged + 7) // 8

    def test_signed_roundtrip(self):
        writer = BitWriter()
        for value in (-8, -1, 0, 7):
            writer.write_signed(value, 4)
        reader = BitReader(writer.getvalue())
        assert [reader.read_signed(4) for _ in range(4)] == [-8, -1, 0, 7]

    def test_overflow_rejected(self):
        with pytest.raises(ParameterError):
            BitWriter().write(4, 2)

    def test_read_past_end_rejected(self):
        with pytest.raises(ParameterError):
            BitReader(b"\x00").read(9)


class TestNullCodec:
    def test_roundtrip_empty(self):
        assert NULL_CODEC.encode(None) == b""
        assert NULL_CODEC.decode(b"") is None

    def test_rejects_payload(self):
        with pytest.raises(WireError):
            NULL_CODEC.encode(42)


class TestTableCodec:
    @given(sets_of_small_ints)
    @settings(max_examples=25)
    def test_roundtrip(self, keys):
        params = IBLTParameters.for_difference(8, 8, seed=5)
        table = IBLT.from_items(params, keys)
        codec = TableCodec(params)
        data = assert_within_budget(codec, table, params.size_bits)
        assert codec.decode(data) == table


class TestIBFMessageCodec:
    @given(sets_of_small_ints, st.booleans())
    @settings(max_examples=25)
    def test_roundtrip(self, alice, self_describing):
        ctx = SetReconContext(200, 9)
        bound = 6
        table = IBLT.from_items(ctx.table_params(bound), alice)
        payload = (table, set_verification_hash(9, alice), len(alice))
        encoder = IBFMessageCodec(ctx, bound, self_describing)
        decoder = IBFMessageCodec(
            ctx, None if self_describing else bound, self_describing
        )
        size_bits = table.size_bits + bits_for_value(len(alice)) + 64
        data = assert_within_budget(encoder, payload, size_bits)
        decoded_table, decoded_hash, decoded_size = decoder.decode(data)
        assert decoded_table == table
        assert decoded_hash == payload[1]
        assert decoded_size == len(alice)


class TestCPICodec:
    @given(sets_of_small_ints, st.integers(min_value=0, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, alice, bound):
        message = cpi_encode(alice, bound, 200)
        codec = CPIMessageCodec(200, bound)
        data = assert_within_budget(codec, message, message.size_bits)
        assert codec.decode(data) == message


def _sos(children):
    return SetOfSets(children)


class TestSetsOfSetsCodecs:
    def ctx(self, **kwargs):
        defaults = dict(max_child_size=8, max_num_children=6, max_total_elements=40)
        defaults.update(kwargs)
        return SetsOfSetsContext(64, 11, **defaults)

    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=63), max_size=8),
            max_size=6,
        ),
        st.booleans(),
    )
    @settings(max_examples=25)
    def test_naive_roundtrip(self, children, self_describing):
        ctx = self.ctx()
        parent = _sos(children)
        bound = 4
        from repro.core.setsofsets.encoding import ExplicitChildScheme, parent_hash

        scheme = ExplicitChildScheme(ctx.universe_size, ctx.max_child_size)
        table = IBLT(_naive_parent_params(ctx, bound))
        table.insert_batch(scheme.encode(child) for child in parent)
        payload = (table, parent_hash(parent, ctx.seed))
        encoder = _naive_codec(ctx, bound, self_describing)
        decoder = _naive_codec(ctx, None if self_describing else bound, self_describing)
        data = assert_within_budget(encoder, payload, table.size_bits + 64)
        decoded_table, decoded_hash = decoder.decode(data)
        assert decoded_table == table and decoded_hash == payload[1]

    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=63), max_size=8),
            max_size=5,
        ),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=20, deadline=None)
    def test_cascading_roundtrip(self, children, bound):
        ctx = self.ctx()
        parent = _sos(children)
        plan = _cascade_plan(ctx, bound)
        from repro.core.setsofsets.encoding import parent_hash

        level_tables = []
        for scheme, params in zip(plan.schemes, plan.level_params):
            table = IBLT(params)
            table.insert_batch(scheme.encode_all(parent))
            level_tables.append(table)
        t_star = None
        if plan.t_star_params is not None:
            t_star = IBLT(plan.t_star_params)
            t_star.insert_batch(plan.explicit_scheme.encode(child) for child in parent)
        payload = (level_tables, t_star, parent_hash(parent, ctx.seed))
        codec = CascadingMessageCodec(plan)
        data = assert_within_budget(codec, payload, plan.total_bits)
        decoded_tables, decoded_t_star, decoded_hash = codec.decode(data)
        assert decoded_tables == level_tables
        assert decoded_t_star == t_star
        assert decoded_hash == payload[2]

    @given(
        st.lists(
            st.frozensets(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
            max_size=4,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_multiround_round2_roundtrip(self, differing):
        ctx = self.ctx()
        params = _hash_iblt_params(ctx, 4)
        factory, estimator_seed = _multiround_child_estimator(ctx)
        estimator_codec = EstimatorCodec(factory, estimator_seed)
        table = IBLT.from_items(params, range(1, 5))
        estimators = []
        for index, child in enumerate(differing):
            estimator = factory(estimator_seed)
            estimator.update_all(child, 1)
            estimators.append((index + 1, estimator))
        payload = (table, estimators)
        size_bits = table.size_bits + sum(
            CHILD_HASH_BITS + est.size_bits for _, est in estimators
        )
        codec = MultiroundRound2Codec(ctx, params)
        data = assert_within_budget(codec, payload, size_bits)
        decoded_table, decoded_estimators = codec.decode(data)
        assert decoded_table == table
        assert len(decoded_estimators) == len(estimators)
        for (sent_hash, sent), (got_hash, got) in zip(estimators, decoded_estimators):
            assert sent_hash == got_hash
            assert estimator_codec.encode(sent) == estimator_codec.encode(got)

    @given(
        st.lists(
            st.tuples(
                st.frozensets(st.integers(min_value=0, max_value=63), max_size=8),
                st.booleans(),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_multiround_payloads_roundtrip(self, specs):
        ctx = self.ctx()
        payloads = []
        for index, (child, use_cpi, bound) in enumerate(specs):
            own_hash = index + 10
            if use_cpi:
                payloads.append(
                    ChildPayload(
                        index, own_hash, bound, None,
                        cpi_encode(set(child), bound, ctx.universe_size),
                    )
                )
            else:
                params = _multiround_child_params(ctx, bound, own_hash)
                payloads.append(
                    ChildPayload(
                        index, own_hash, bound,
                        IBLT.from_items(params, child), None,
                    )
                )
        codec = MultiroundPayloadsCodec(ctx)
        size_bits = sum(p.size_bits(CHILD_HASH_BITS) for p in payloads)
        data = assert_within_budget(codec, payloads, size_bits)
        decoded = codec.decode(data)
        assert decoded == payloads

    @pytest.mark.parametrize("use_cpi", [True, False], ids=["cpi", "iblt"])
    def test_multiround_per_child_bound_is_clamped_on_read(self, use_cpi):
        # An honest Alice clamps each per-child bound to [1, 2h]; a bound past
        # it would buy a hostile peer a CPI decode cubic in a 24-bit number.
        ctx = self.ctx()
        h = ctx.max_child_size
        codec = MultiroundPayloadsCodec(ctx)

        def payload(bound):
            if use_cpi:
                return [ChildPayload(1, 2, bound, None, cpi_encode({3, 4}, bound, 64))]
            params = _multiround_child_params(ctx, bound, 2)
            return [ChildPayload(1, 2, bound, IBLT.from_items(params, {3, 4}), None)]

        assert codec.decode(codec.encode(payload(2 * h))) == payload(2 * h)
        with pytest.raises(WireError, match="per-child bound"):
            codec.decode(codec.encode(payload(2 * h + 1)))
        if use_cpi:  # an IBLT cannot even be sized for bound 0
            with pytest.raises(WireError, match="per-child bound"):
                codec.decode(codec.encode(payload(0)))


class TestEstimatorCodecs:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: L0Estimator(seed, num_levels=6, buckets_per_level=16),
            # Multiround's per-child sketch, as the round-2 message carries it.
            _multiround_child_estimator(
                SetsOfSetsContext(64, 11, max_child_size=8, max_num_children=6)
            )[0],
        ],
        ids=["l0", "l0-child"],
    )
    @given(elements=st.sets(st.integers(min_value=0, max_value=10**6), max_size=30))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip(self, factory, elements):
        estimator = factory(31)
        estimator.update_all(elements, 1)
        codec = EstimatorCodec(factory, 31)
        data = assert_within_budget(codec, estimator, estimator.size_bits)
        decoded = codec.decode(data)
        assert decoded.query() == estimator.query()
        assert decoded.size_bits == estimator.size_bits
        # Re-encoding the decoded sketch must give identical bytes.
        assert codec.encode(decoded) == data


class TestFingerprintCodec:
    @given(st.integers(min_value=0, max_value=16), st.integers(min_value=0, max_value=16))
    def test_roundtrip(self, point, evaluation):
        codec = FingerprintCodec(17)
        data = assert_within_budget(codec, (point, evaluation), 2 * bits_for_value(16))
        assert codec.decode(data) == (point, evaluation)


class TestKVPreludeCodecs:
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**9))
    def test_summary_roundtrip(self, set_hash, size):
        codec = KVSummaryCodec()
        data = assert_within_budget(codec, (set_hash, size), summary_bits(size))
        assert codec.decode(data) == (set_hash, size)

    @given(st.none() | st.integers(min_value=0, max_value=10**9))
    def test_verdict_roundtrip(self, verdict):
        # In sync: the one bit.  Differing: the bit, then alice's size.
        codec = KVVerdictCodec()
        data = assert_within_budget(codec, verdict, verdict_bits(verdict))
        assert codec.decode(data) == verdict

    @given(
        st.just(GROW)
        | st.tuples(
            st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=5).map(tuple),
            st.just(()),
        )
    )
    def test_request_roundtrip(self, request):
        # A growth request is the leading bit alone; a pull is that bit clear
        # ahead of the pull frame.
        bits = 1 if request is GROW else pull_request_bits(*request)
        data = assert_within_budget(REQUEST_CODEC, request, bits)
        assert REQUEST_CODEC.decode(data) == request


def _truncation_cases():
    """``{name: (codec, payload)}`` for the codecs whose payloads delimit
    themselves: fixed-size fields, or the estimator frames' own headers."""
    from repro.core.setsofsets.encoding import ExplicitChildScheme, parent_hash

    ctx = SetsOfSetsContext(
        64, 11, max_child_size=8, max_num_children=6, max_total_elements=40
    )
    parent = _sos([{1, 2}, {3, 4, 5}])
    table_params = IBLTParameters.for_difference(8, 8, seed=5)
    parent_table = IBLT(_naive_parent_params(ctx, 4))
    scheme = ExplicitChildScheme(ctx.universe_size, ctx.max_child_size)
    parent_table.insert_batch(scheme.encode(child) for child in parent)
    estimator = L0Estimator(31)
    estimator.update_all(range(20), 1)
    # Enough elements for dense low levels ahead of the sparse ones.
    l0 = L0Estimator(31)
    l0.update_all(range(1000), 1)
    factory, estimator_seed = _multiround_child_estimator(ctx)
    child_estimators = []
    for child_hash, child in ((7, {1, 2, 3}), (9, set(range(40, 48)))):
        child_estimator = factory(estimator_seed)
        child_estimator.update_all(child, 1)
        child_estimators.append((child_hash, child_estimator))
    hash_params = _hash_iblt_params(ctx, 4)
    plan = _cascade_plan(ctx, 4)
    level_tables = []
    for level_scheme, params in zip(plan.schemes, plan.level_params):
        level_table = IBLT(params)
        level_table.insert_batch(level_scheme.encode_all(parent))
        level_tables.append(level_table)
    t_star = None
    if plan.t_star_params is not None:
        t_star = IBLT(plan.t_star_params)
        t_star.insert_batch(plan.explicit_scheme.encode(child) for child in parent)
    return {
        "table": (TableCodec(table_params), IBLT.from_items(table_params, range(10))),
        "table-with-hash": (
            _naive_codec(ctx, 4, False), (parent_table, parent_hash(parent, ctx.seed))
        ),
        "estimator": (EstimatorCodec(L0Estimator, 31), estimator),
        "l0": (EstimatorCodec(L0Estimator, 31), l0),
        "l0-child": (EstimatorCodec(factory, estimator_seed), child_estimators[1][1]),
        "multiround-round2": (
            MultiroundRound2Codec(ctx, hash_params),
            (IBLT.from_items(hash_params, range(1, 5)), child_estimators),
        ),
        "cascading": (
            CascadingMessageCodec(plan),
            (level_tables, t_star, parent_hash(parent, ctx.seed)),
        ),
        "fingerprint": (FingerprintCodec(17), (3, 5)),
        # The size is the stream's tail field: cut off with the final byte
        # only while it fits in one byte.
        "kv-summary": (KVSummaryCodec(), ((1 << 64) - 1, 200)),
        "kv-verdict": (KVVerdictCodec(), 100),  # the bit and the size: one byte
    }


@pytest.mark.parametrize(
    "name",
    [
        "table",
        "table-with-hash",
        "estimator",
        "l0",
        "l0-child",
        "multiround-round2",
        "cascading",
        "fingerprint",
        "kv-summary",
        "kv-verdict",
    ],
)
def test_truncated_payload_is_a_wire_error(name):
    codec, payload = _truncation_cases()[name]
    data = codec.encode(payload)
    codec.decode(data)  # the whole payload parses
    with pytest.raises(WireError, match="bit stream exhausted"):
        codec.decode(data[:-1])
