"""The MSB-first bit stream: the bytes of the one-integer reference, at
O(field) cost per field however long the stream."""

import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.comm.bits as bits_module
from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError


class ReferenceWriter:
    """The stream as one integer, shifted once per field."""

    def __init__(self):
        self.acc = 0
        self.bits = 0

    def write(self, value, bits):
        self.acc = (self.acc << bits) | value
        self.bits += bits

    def write_tail(self, value):
        bits = max(1, value.bit_length())
        self.write(value, bits + (-(self.bits + bits)) % 8)

    def getvalue(self):
        pad = (-self.bits) % 8
        return (self.acc << pad).to_bytes((self.bits + pad) // 8, "big")


class ReferenceReader:
    def __init__(self, data):
        self.acc = int.from_bytes(data, "big")
        self.total = 8 * len(data)
        self.pos = 0

    def read(self, bits):
        self.pos += bits
        return (self.acc >> (self.total - self.pos)) & ((1 << bits) - 1)

    def read_tail_int(self):
        remaining = self.total - self.pos
        self.pos = self.total
        return self.acc & ((1 << remaining) - 1)


@pytest.fixture(params=["default", "tiny-buffers"])
def buffers(request, monkeypatch):
    """The shipped buffer sizes, and one-byte ones so that nearly every field
    crosses a flush or a window boundary (the same for every example, so
    one patch per test is enough)."""
    if request.param == "tiny-buffers":
        monkeypatch.setattr(bits_module, "_FLUSH_BITS", 8)
        monkeypatch.setattr(bits_module, "_WINDOW_BYTES", 1)
    return request.param


PER_TEST_FIXTURE = [HealthCheck.function_scoped_fixture]


FIELD = st.integers(0, 300).flatmap(
    lambda width: st.tuples(st.just(width), st.integers(0, (1 << width) - 1))
)
FIELDS = st.lists(FIELD, max_size=40)
TAIL = st.none() | st.integers(0, 1 << 100)


@settings(max_examples=150, deadline=None, suppress_health_check=PER_TEST_FIXTURE)
@given(fields=FIELDS, tail=TAIL)
def test_writer_and_reader_match_the_reference(buffers, fields, tail):
    writer, reference = BitWriter(), ReferenceWriter()
    for width, value in fields:
        writer.write(value, width)
        reference.write(value, width)
        assert writer.bit_length == reference.bits
    if tail is not None:
        writer.write_tail(tail)
        reference.write_tail(tail)
    data = writer.getvalue()
    assert data == reference.getvalue()

    reader, expected = BitReader(data), ReferenceReader(data)
    for width, value in fields:
        assert reader.read(width) == expected.read(width) == value
        assert reader.remaining_bits == expected.total - expected.pos
    if tail is not None:
        assert reader.read_tail_int() == expected.read_tail_int() == tail
        assert reader.remaining_bits == 0


@settings(max_examples=50, deadline=None, suppress_health_check=PER_TEST_FIXTURE)
@given(values=st.lists(st.integers(-(1 << 20), (1 << 20) - 1), max_size=30))
def test_signed_fields_round_trip(buffers, values):
    writer = BitWriter()
    for value in values:
        writer.write_signed(value, 21)
    reader = BitReader(writer.getvalue())
    assert [reader.read_signed(21) for _ in values] == values


def test_exhaustion_and_bad_fields_raise(buffers):
    reader = BitReader(b"\xab\xcd")
    assert reader.read(12) == 0xABC
    with pytest.raises(ParameterError, match="exhausted"):
        reader.read(5)
    assert reader.read(4) == 0xD
    with pytest.raises(ParameterError, match="exhausted"):
        reader.read_tail_int()
    with pytest.raises(ParameterError):
        reader.read(-1)
    writer = BitWriter()
    with pytest.raises(ParameterError, match="does not fit"):
        writer.write(8, 3)
    with pytest.raises(ParameterError, match="does not fit"):
        writer.write(-1, 8)


def test_a_mebibyte_of_64_bit_fields_is_linear():
    """A stream-sized shift per field made this take minutes; a forged
    frame near the 64 MiB payload cap would have taken hours."""
    count = (1 << 20) * 8 // 64
    values = [(index * 0x9E3779B97F4A7C15) & ((1 << 64) - 1) for index in range(count)]
    start = time.perf_counter()
    writer = BitWriter()
    for value in values:
        writer.write(value, 64)
    data = writer.getvalue()
    reader = BitReader(data)
    read_back = [reader.read(64) for _ in range(count)]
    elapsed = time.perf_counter() - start
    assert len(data) == 1 << 20 and read_back == values
    assert elapsed < 3.0, f"1 MiB of 64-bit fields took {elapsed:.2f} s"
