"""KV records: fingerprints, LWW order, bit-exact wire form, state digest."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.cluster.records as records_module
from repro.cluster import KVRecord, VersionedKV, record_bits, record_fingerprint, state_digest
from repro.cluster.records import (
    FINGERPRINT_UNIVERSE,
    KEY_LENGTH_BITS,
    VALUE_LENGTH_BITS,
    read_record,
    record_fingerprints,
    write_record,
)
from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError


def rec(key="user:7", version=3, writer=1, value="hello"):
    return KVRecord(key=key, version=version, writer=writer, value=value)


def write_record_per_byte(writer, record):
    """The reference writer: every string byte as its own 8-bit field."""
    key_bytes = record.key.encode("utf-8")
    writer.write(len(key_bytes), KEY_LENGTH_BITS)
    for byte in key_bytes:
        writer.write(byte, 8)
    writer.write(record.version, 64)
    writer.write(record.writer, 32)
    writer.write(1 if record.value is None else 0, 1)
    if record.value is not None:
        value_bytes = record.value.encode("utf-8")
        writer.write(len(value_bytes), VALUE_LENGTH_BITS)
        for byte in value_bytes:
            writer.write(byte, 8)


class TestFingerprints:
    def test_deterministic_and_in_universe(self):
        a = record_fingerprint(42, rec())
        b = record_fingerprint(42, rec())
        assert a == b
        assert 0 <= a < FINGERPRINT_UNIVERSE

    def test_every_field_moves_the_element(self):
        base = record_fingerprint(42, rec())
        assert record_fingerprint(42, rec(key="user:8")) != base
        assert record_fingerprint(42, rec(version=4)) != base
        assert record_fingerprint(42, rec(writer=2)) != base
        assert record_fingerprint(42, rec(value="other")) != base
        assert record_fingerprint(43, rec()) != base

    def test_tombstone_differs_from_any_value(self):
        dead = record_fingerprint(42, rec(value=None))
        assert dead != record_fingerprint(42, rec(value="hello"))
        assert dead != record_fingerprint(42, rec(value=""))

    def test_pinned_values(self):
        # Taken on the code that derived the chain's seed once per record:
        # caching that derivation per seed must not move an element.
        assert record_fingerprint(42, rec()) == 0x9EB5434318CFF086
        wide = rec(key="naïve-κλειδί", version=(1 << 64) - 1, writer=(1 << 32) - 1, value="")
        assert record_fingerprint(0, wide) == 0x34578FD4231F9CDB
        assert record_fingerprint(2018, rec(key="k", version=1, writer=0, value=None)) == (
            0x81A034915368F70C
        )


@pytest.fixture(params=["as-installed", "always-scalar", "always-array"])
def fingerprint_route(request, monkeypatch):
    """``record_fingerprints`` on the route the batch size picks, on the
    scalar route and on the array route whatever the batch size."""
    if request.param == "always-scalar":
        monkeypatch.setattr(records_module, "_BATCH_CUTOFF", 1 << 62)
    elif request.param == "always-array":
        monkeypatch.setattr(records_module, "_BATCH_CUTOFF", 0)
    return request.param


ANY_RECORD = st.builds(
    KVRecord,
    key=st.text(min_size=1, max_size=8),
    version=st.integers(1, (1 << 64) - 1),
    writer=st.integers(0, (1 << 32) - 1),
    value=st.none() | st.text(max_size=8),
)


class TestBatchFingerprints:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, (1 << 64) - 1), records=st.lists(ANY_RECORD, max_size=40))
    def test_equal_to_one_record_at_a_time(self, fingerprint_route, seed, records):
        assert record_fingerprints(seed, records) == [
            record_fingerprint(seed, record) for record in records
        ]

    def test_pinned_values(self, fingerprint_route):
        wide = rec(key="naïve-κλειδί", version=(1 << 64) - 1, writer=(1 << 32) - 1, value="")
        # Four copies of TestFingerprints' pinned records: past the cutoff.
        batch = [rec(), wide, rec(key="k", version=1, writer=0, value=None)] * 4
        pins = (
            (42, 0, 0x9EB5434318CFF086),
            (0, 1, 0x34578FD4231F9CDB),
            (2018, 2, 0x81A034915368F70C),
        )
        for seed, index, pinned in pins:
            assert record_fingerprints(seed, batch)[index::3] == [pinned] * 4
        assert record_fingerprints(3, []) == []


class TestLWWOrder:
    def test_higher_version_wins(self):
        assert rec(version=4).wins_over(rec(version=3))
        assert not rec(version=3).wins_over(rec(version=4))

    def test_writer_breaks_version_ties(self):
        assert rec(writer=2).wins_over(rec(writer=1))
        assert not rec(writer=1).wins_over(rec(writer=2))

    def test_anything_wins_over_absence(self):
        assert rec().wins_over(None)

    def test_never_wins_over_itself(self):
        assert not rec().wins_over(rec())

    def test_live_value_outranks_tombstone_at_same_version(self):
        # Total order even for same (version, writer): deletion loses.
        assert rec(value="x").wins_over(rec(value=None))

    def test_order_is_total_and_antisymmetric(self):
        records = [
            rec(version=v, writer=w, value=val)
            for v in (1, 2)
            for w in (0, 1)
            for val in (None, "a", "b")
        ]
        for left in records:
            for right in records:
                if left != right:
                    assert left.wins_over(right) != right.wins_over(left)


class TestWireForm:
    @pytest.mark.parametrize(
        "record",
        [
            rec(),
            rec(value=None),
            rec(key="k", value=""),
            rec(key="naïve-κλειδί", value="végtelen értek"),  # multi-byte UTF-8
            rec(version=(1 << 64) - 1, writer=(1 << 32) - 1),
        ],
    )
    def test_roundtrip_is_bit_exact(self, record):
        writer = BitWriter()
        write_record(writer, record)
        assert writer.bit_length == record_bits(record)
        reader = BitReader(writer.getvalue())
        assert read_record(reader) == record

    @given(
        key=st.text(min_size=1, max_size=12),
        value=st.one_of(st.none(), st.text(max_size=24)),
        lead_bits=st.integers(0, 7),
    )
    def test_strings_as_one_field_are_the_per_byte_bits(self, key, value, lead_bits):
        record = rec(key=key, value=value)
        # A few bits in front, so the strings do not start on a byte boundary.
        ours, reference = BitWriter(), BitWriter()
        ours.write(0, lead_bits)
        reference.write(0, lead_bits)
        write_record(ours, record)
        write_record_per_byte(reference, record)
        assert ours.bit_length == reference.bit_length == lead_bits + record_bits(record)
        assert ours.getvalue() == reference.getvalue()
        reader = BitReader(ours.getvalue())
        reader.read(lead_bits)
        assert read_record(reader) == record

    def test_json_wire_roundtrip(self):
        for record in (rec(), rec(value=None)):
            assert KVRecord.from_wire(record.to_wire()) == record

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(key=""),
            dict(version=0),
            dict(version=1 << 64),
            dict(writer=-1),
            dict(writer=1 << 32),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            rec(**kwargs)


class TestStateDigest:
    def test_order_independent(self):
        records = [rec(key=f"k{i}", version=i + 1) for i in range(5)]
        assert state_digest(records) == state_digest(reversed(records))

    def test_any_field_changes_the_digest(self):
        base = [rec(), rec(key="other", version=5)]
        assert state_digest(base) != state_digest([rec(value="x"), base[1]])
        assert state_digest(base) != state_digest([rec(version=4), base[1]])
        assert state_digest(base) != state_digest(base[:1])

    def test_tombstone_distinct_from_empty_value(self):
        assert state_digest([rec(value=None)]) != state_digest([rec(value="")])

    def test_pinned_values(self):
        # Taken on the code that fed BLAKE2b one field at a time: joining
        # each record's bytes first must not move a digest.
        assert state_digest([]) == "ff1e8ff31b57f33d986fd55ba777550b"
        tombstone = rec(key="gone", version=3, writer=2, value=None)
        assert state_digest([tombstone]) == "40386ed6d8185bc0ee21dc2cc4dce4e3"
        non_ascii = [
            rec(key="clé", version=1, writer=0, value="ünïcødé ☃"),
            rec(key="ключ", version=(1 << 64) - 1, writer=(1 << 32) - 1, value=""),
            rec(key="鍵", version=7, writer=1, value=None),
        ]
        assert state_digest(non_ascii) == "2c7dc242a34ba16c18d14457ca12d293"
        state = [
            rec(
                key=f"key-{i:03d}",
                version=1 + i % 5,
                writer=i % 3,
                value=None if i % 7 == 0 else f"value-{i}",
            )
            for i in range(500)
        ]
        assert state_digest(reversed(state)) == "37da23d275382aacdc53554f9b340cf2"
        # The replica's kept bytes give the same hex.
        kv = VersionedKV(9, seed=1)
        kv.merge_records(state)
        assert kv.digest() == "37da23d275382aacdc53554f9b340cf2"
        assert VersionedKV(9, seed=1).digest() == "ff1e8ff31b57f33d986fd55ba777550b"
