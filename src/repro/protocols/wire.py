"""Wire codecs: turning protocol payloads into bytes and back.

Every message a party :class:`~repro.protocols.party.Send`-s carries a codec
describing its byte encoding; the matching :class:`Receive` carries the codec
the receiver uses to decode it.  Codecs are built from *shared protocol
context* (universe sizes, seeds, table parameters both parties can derive),
so the bytes on the wire carry only the information the transcript charges
for -- exactly like a real protocol implementation would.

Two invariants tie the codecs to the paper's communication accounting:

* ``decode(encode(payload))`` reproduces the payload (round-trip tests in
  ``tests/protocols/test_wire_roundtrip.py``);
* ``len(encode(payload)) * 8 <= size_bits + framing_bits(payload) + 7`` where
  ``size_bits`` is what the transcript charged.  ``framing_bits`` is each
  codec's *documented* slack -- almost always 0; the exceptions are the
  self-describing headers of the unknown-``d`` variants (a bound the
  receiving party genuinely cannot derive) and the per-child framing of the
  multiround payload list.  :class:`~repro.protocols.transports.SerializingTransport`
  enforces the inequality on every message.

The codecs in this module are the generic, protocol-independent ones;
protocol-specific composites live next to their parties in
:mod:`repro.protocols.parties`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.comm.bits import BitReader, BitWriter
from repro.errors import ParameterError, ReproError
from repro.iblt import IBLT, IBLTParameters


class WireError(ReproError):
    """A payload could not be serialized or deserialized."""


class WireAccountingError(WireError):
    """A serialized message exceeded the size its transcript entry charged."""


class PayloadCodec:
    """Base class for payload codecs.

    Subclasses implement :meth:`write` / :meth:`read` against bit streams;
    :meth:`encode` / :meth:`decode` add the byte framing.  ``framing_bits``
    reports the documented per-payload overhead the analytic ``size_bits``
    does not charge for (0 unless a subclass overrides it).
    """

    def write(self, writer: BitWriter, payload: Any) -> None:
        raise NotImplementedError

    def read(self, reader: BitReader) -> Any:
        raise NotImplementedError

    def framing_bits(self, payload: Any) -> int:
        return 0

    def encode(self, payload: Any) -> bytes:
        writer = BitWriter()
        self.write(writer, payload)
        return writer.getvalue()

    def decode(self, data: bytes) -> Any:
        """Parse one payload; bytes that do not parse (e.g. truncated) raise :class:`WireError`."""
        try:
            return self.read(BitReader(data))
        except ParameterError as exc:
            raise WireError(f"malformed {type(self).__name__} payload: {exc}") from exc


class NullCodec(PayloadCodec):
    """Codec for payload-less messages (acknowledgements, retry requests).

    The transcript still charges such messages (e.g. one word for a retry
    request -- the receiver learns one bit of information plus framing), but
    nothing needs to cross the wire beyond the frame itself.
    """

    def write(self, writer: BitWriter, payload: Any) -> None:
        if payload is not None:
            raise WireError("NullCodec cannot carry a payload")

    def read(self, reader: BitReader) -> Any:
        return None


NULL_CODEC = NullCodec()


class TableCodec(PayloadCodec):
    """Codec for one IBLT with shared :class:`IBLTParameters`.

    Packs :meth:`IBLT.serialize` into exactly ``params.size_bits`` bits; the
    parameters themselves are shared context and never transmitted.
    """

    def __init__(self, params: IBLTParameters) -> None:
        self.params = params

    def write(self, writer: BitWriter, payload: IBLT) -> None:
        if payload.params != self.params:
            raise WireError("table parameters do not match the codec's shared context")
        writer.write(payload.serialize(), self.params.size_bits)

    def read(self, reader: BitReader) -> IBLT:
        return IBLT.deserialize(self.params, reader.read(self.params.size_bits))


class TableWithHashCodec(PayloadCodec):
    """Codec for ``(parent IBLT, verification hash)`` messages.

    Covers the one-message set-of-sets protocols (naive, IBLT-of-IBLTs,
    multiround round 1): the table parameters follow from a shared
    bound-to-parameters rule.  With ``self_describing=True`` the bound is
    prepended as a ``header_bits`` field (documented framing) for flows where
    the receiver cannot derive it (the estimator-based unknown-``d``
    variants); the repeated-doubling variants do *not* need it, since both
    parties track the deterministic bound schedule.
    """

    def __init__(
        self,
        params_for_bound: Callable[[int], IBLTParameters],
        bound: int | None,
        *,
        self_describing: bool = False,
        hash_bits: int = 64,
        header_bits: int = 32,
    ) -> None:
        self.params_for_bound = params_for_bound
        self.bound = bound
        self.self_describing = self_describing
        self.hash_bits = hash_bits
        self.header_bits = header_bits

    def write(self, writer: BitWriter, payload: tuple[IBLT, int]) -> None:
        table, verification = payload
        if self.bound is None:
            raise WireError("encoding side must know the bound")
        if self.self_describing:
            writer.write(self.bound, self.header_bits)
        params = self.params_for_bound(self.bound)
        if table.params != params:
            raise WireError("table parameters disagree with the shared context")
        writer.write(table.serialize(), params.size_bits)
        writer.write(verification, self.hash_bits)

    def read(self, reader: BitReader) -> tuple[IBLT, int]:
        bound = reader.read(self.header_bits) if self.self_describing else self.bound
        params = self.params_for_bound(bound)
        table = IBLT.deserialize(params, reader.read(params.size_bits))
        verification = reader.read(self.hash_bits)
        return table, verification

    def framing_bits(self, payload: tuple[IBLT, int]) -> int:
        return self.header_bits if self.self_describing else 0


class EstimatorCodec(PayloadCodec):
    """Codec for a set-difference estimator built by a shared factory.

    Only the estimator's registers travel (exactly ``size_bits`` bits); the
    configuration is reconstructed by calling ``factory(seed)`` on the
    receiving side -- both parties share the factory and the derived seed.
    """

    def __init__(self, factory: Callable[[int], Any], seed: int) -> None:
        self.factory = factory
        self.seed = seed

    def write(self, writer: BitWriter, payload: Any) -> None:
        payload.write_wire(writer)

    def read(self, reader: BitReader) -> Any:
        estimator = self.factory(self.seed)
        estimator.read_wire(reader)
        return estimator


