"""MSB-first bit packing used by the wire-serialization layer.

Protocols charge communication in *bits* (:mod:`repro.comm.sizing`); the
wire codecs of :mod:`repro.protocols.wire` must therefore pack payloads at
bit granularity, otherwise per-field byte rounding would make real encodings
exceed the charged sizes.  :class:`BitWriter` and :class:`BitReader` provide
the minimal MSB-first bit stream both sides share.

A stream is always padded with zero bits up to a byte boundary.  Codecs that
end with a single variable-width integer field exploit this: the field is
written in exactly ``bits_for_value(value)`` bits (so its first bit is 1
unless the value is 0) and read back with :meth:`BitReader.read_tail_int`,
which consumes every remaining bit -- the zero padding is absorbed because it
can never flip the value.
"""

from __future__ import annotations

from repro.errors import ParameterError


class BitWriter:
    """Accumulates an MSB-first bit stream and renders it to bytes."""

    def __init__(self) -> None:
        self._acc = 0
        self._bits = 0

    def write(self, value: int, bits: int) -> None:
        """Append ``value`` as a ``bits``-wide big-endian field."""
        if bits < 0:
            raise ParameterError("bits must be non-negative")
        if value < 0 or (bits < value.bit_length()):
            raise ParameterError(f"value {value} does not fit in {bits} bits")
        self._acc = (self._acc << bits) | value
        self._bits += bits

    def write_signed(self, value: int, bits: int) -> None:
        """Append ``value`` in two's complement."""
        if bits <= 0:
            raise ParameterError("bits must be positive")
        half = 1 << (bits - 1)
        if not -half <= value < half:
            raise ParameterError(f"value {value} does not fit in {bits} signed bits")
        self.write(value % (1 << bits), bits)

    def write_tail(self, value: int) -> None:
        """Append a variable-width integer as the *final* field of the stream.

        The value is written in ``bits_for_value(value)`` bits, left-padded
        with zeros up to the byte boundary the stream will end on.  The byte
        length is identical to writing the bare ``bits_for_value(value)``
        bits (the padding lands in the final partial byte either way), but
        the left padding makes :meth:`BitReader.read_tail_int` unambiguous --
        right padding would multiply the value by a power of two.
        """
        if value < 0:
            raise ParameterError("tail values must be non-negative")
        bits = max(1, value.bit_length())
        pad = (-(self._bits + bits)) % 8
        self.write(value, bits + pad)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (before byte padding)."""
        return self._bits

    def getvalue(self) -> bytes:
        """The stream as bytes, zero-padded up to a byte boundary."""
        pad = (-self._bits) % 8
        total = self._bits + pad
        return (self._acc << pad).to_bytes(total // 8, "big")


class BitReader:
    """Reads MSB-first bit fields out of a byte string."""

    def __init__(self, data: bytes) -> None:
        self._acc = int.from_bytes(data, "big")
        self._total = len(data) * 8
        self._pos = 0

    @property
    def remaining_bits(self) -> int:
        """Bits left in the stream (including any trailing byte padding)."""
        return self._total - self._pos

    def read(self, bits: int) -> int:
        """Read a ``bits``-wide big-endian field."""
        if bits < 0:
            raise ParameterError("bits must be non-negative")
        if bits > self.remaining_bits:
            raise ParameterError("bit stream exhausted")
        self._pos += bits
        return (self._acc >> (self._total - self._pos)) & ((1 << bits) - 1)

    def read_signed(self, bits: int) -> int:
        """Read a two's complement field."""
        if bits <= 0:
            raise ParameterError("bits must be positive")
        raw = self.read(bits)
        half = 1 << (bits - 1)
        return raw - (1 << bits) if raw >= half else raw

    def read_tail_int(self) -> int:
        """Consume every remaining bit and return it as one integer.

        Inverse of :meth:`BitWriter.write_tail`: the final field was written
        left-padded up to the byte boundary, so the remaining bits *are* the
        value.  Only valid for the final field of a stream.  The field is at
        least one bit wide, so a stream with nothing left was truncated.
        """
        remaining = self.remaining_bits
        if not remaining:
            raise ParameterError("bit stream exhausted")
        self._pos = self._total
        return self._acc & ((1 << remaining) - 1)
