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

Both classes cost O(field) per field, however long the stream: the writer
moves whole bytes out of its accumulator once it holds
:data:`_FLUSH_BITS`, and the reader loads at most :data:`_WINDOW_BYTES`
(or the field, if wider) at a time.  Shifting one stream-sized integer per
field would make a forged multi-megabyte frame cost hours to parse.
"""

from __future__ import annotations

from repro.errors import ParameterError

#: The writer moves whole bytes out of its accumulator past this many bits.
_FLUSH_BITS = 4096
#: The reader loads this many bytes per window (more only for a wider field).
_WINDOW_BYTES = 512


class BitWriter:
    """Accumulates an MSB-first bit stream and renders it to bytes."""

    def __init__(self) -> None:
        self._out = bytearray()  # flushed whole bytes
        self._acc = 0  # the pending bits after them
        self._pending = 0

    def write(self, value: int, bits: int) -> None:
        """Append ``value`` as a ``bits``-wide big-endian field."""
        if bits < 0:
            raise ParameterError("bits must be non-negative")
        if value < 0 or (bits < value.bit_length()):
            raise ParameterError(f"value {value} does not fit in {bits} bits")
        self._acc = (self._acc << bits) | value
        self._pending += bits
        if self._pending >= _FLUSH_BITS:
            spare = self._pending & 7
            self._out += (self._acc >> spare).to_bytes(self._pending >> 3, "big")
            self._acc &= (1 << spare) - 1
            self._pending = spare

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
        pad = (-(self.bit_length + bits)) % 8
        self.write(value, bits + pad)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far (before byte padding)."""
        return 8 * len(self._out) + self._pending

    def getvalue(self) -> bytes:
        """The stream as bytes, zero-padded up to a byte boundary."""
        pad = (-self._pending) % 8
        tail = (self._acc << pad).to_bytes((self._pending + pad) // 8, "big")
        return bytes(self._out) + tail


class BitReader:
    """Reads MSB-first bit fields out of a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._total = len(data) * 8
        self._pos = 0
        # The bytes loaded last, as one int whose last bit is stream bit
        # ``_window_end - 1``; it is reloaded when a field runs past it.
        self._window = 0
        self._window_end = 0

    @property
    def remaining_bits(self) -> int:
        """Bits left in the stream (including any trailing byte padding)."""
        return self._total - self._pos

    def read(self, bits: int) -> int:
        """Read a ``bits``-wide big-endian field."""
        if bits < 0:
            raise ParameterError("bits must be non-negative")
        end = self._pos + bits
        if end > self._window_end:  # never past the stream
            if end > self._total:
                raise ParameterError("bit stream exhausted")
            start = self._pos >> 3
            stop = min(len(self._data), max((end + 7) >> 3, start + _WINDOW_BYTES))
            self._window = int.from_bytes(self._data[start:stop], "big")
            self._window_end = 8 * stop
        self._pos = end
        return (self._window >> (self._window_end - end)) & ((1 << bits) - 1)

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
        tail = int.from_bytes(self._data[self._pos >> 3 :], "big")
        self._pos = self._total
        return tail & ((1 << remaining) - 1)
