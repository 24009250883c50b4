"""The ``kv`` gossip protocol: summary, fingerprint reconciliation, value fetch.

One gossip round between two replicas is a single session in three phases:

* **Phase 0 -- the summary prelude.**  Bob sends ``"kv summary"``: his
  fingerprint set's 64-bit whole-set verification hash and its size, both
  kept live by the :class:`~repro.store.parties.StoreView` in O(1) per
  record.  Alice answers ``"kv verdict"``, one bit: whether her view has
  the same ``(set_hash, size)``.  If it does, both sides succeed with
  nothing to merge and the session ends after ``64 + bits_for_value(n) + 1``
  bits, whatever the bound.  A wrong skip needs a 64-bit hash collision at
  equal size -- the same risk phase one's verification already accepts.
  Both sides report ``details["kv_in_sync"]``.  A forged summary or
  verdict can end a session early but never makes anything merge.
* **Phase 1 -- set reconciliation** (only when the verdict is "differ";
  every frame from here on is what it was without the prelude).  Not a
  copy of the ``ibf`` exchange but the exchange itself: the
  ``ibf_alice`` / ``ibf_bob_difference`` flows
  of :mod:`repro.protocols.parties.setrecon`, composed with ``yield from``
  over each replica's live :class:`~repro.store.parties.StoreView` of its
  record fingerprint set, under the label ``"kv fingerprint IBLT"``.  Alice
  sends her live IBLT (plus whole-set hash and size), bob subtracts his
  live table, peels, and verifies incrementally.  The verified decode tells
  bob which fingerprints only alice holds (``positive``) and which only he
  holds (``negative``).
* **Phase 2 -- value fetch.**  Bob sends one ``"kv pull"`` frame: the
  fingerprints he wants resolved, together with the full records behind
  his own one-sided fingerprints (pushed so alice needs no second
  request).  Alice answers with a ``"kv records"`` frame carrying the
  requested records, which bob accepts only if they hash to exactly the
  fingerprints he asked for (failure ``"kv-records"`` otherwise).  Both
  frames are bit-exact (:func:`~repro.cluster.records.record_bits`).

The parties are deliberately **pure**: neither side mutates its replica.
Each side returns the records it should merge in
``PartyOutcome.details["kv_apply"]``, and the gossip drivers (simulated
loop, async client, server hook) apply them after the session succeeds.
That keeps rounds atomic -- a failed session leaves both replicas
untouched -- and lets the same replica objects serve any number of
sessions with byte-identical transcripts.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Sequence

from repro.cluster.records import (
    COUNT_BITS,
    FINGERPRINT_UNIVERSE,
    KVRecord,
    read_record,
    record_fingerprints,
    records_bits,
    write_record,
)
from repro.comm import WORD_BITS
from repro.comm.bits import BitReader, BitWriter
from repro.comm.sizing import bits_for_value
from repro.errors import ParameterError
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
    ibf_alice,
    ibf_bob_difference,
)
from repro.protocols.wire import PayloadCodec
from repro.store.config import SketchConfig
from repro.store.parties import StoreView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.replica import VersionedKV
    from repro.protocols.options import ReconcileOptions

#: Bob's prelude payload: ``(set_hash, size)`` of his fingerprint set.
Summary = tuple[int, int]
#: The phase-two payloads.
PullRequest = tuple[tuple[int, ...], tuple[KVRecord, ...]]


class KVSummaryCodec(PayloadCodec):
    """Wire form of bob's summary: the 64-bit set hash, then the size as tail."""

    def write(self, writer: BitWriter, payload: Summary) -> None:
        set_hash, size = payload
        writer.write(set_hash, WORD_BITS)
        writer.write_tail(size)

    def read(self, reader: BitReader) -> Summary:
        return reader.read(WORD_BITS), reader.read_tail_int()


class KVVerdictCodec(PayloadCodec):
    """Wire form of alice's verdict: one bit, set when the summaries agree."""

    def write(self, writer: BitWriter, payload: bool) -> None:
        writer.write(int(payload), 1)

    def read(self, reader: BitReader) -> bool:
        return bool(reader.read(1))


def summary_bits(size: int) -> int:
    """Exact charged size of the summary frame."""
    return WORD_BITS + bits_for_value(size)


class KVPullCodec(PayloadCodec):
    """Wire form of bob's pull frame: wanted fingerprints + pushed records."""

    def write(self, writer: BitWriter, payload: PullRequest) -> None:
        wanted, pushed = payload
        writer.write(len(wanted), COUNT_BITS)
        # The fingerprints as one field: 64 bits each, in order.
        packed = struct.pack(f">{len(wanted)}Q", *wanted)
        writer.write(int.from_bytes(packed, "big"), 64 * len(wanted))
        writer.write(len(pushed), COUNT_BITS)
        for record in pushed:
            write_record(writer, record)

    def read(self, reader: BitReader) -> PullRequest:
        count = reader.read(COUNT_BITS)
        # The one read raises on a count past the stream, before any allocation.
        wanted = struct.unpack(f">{count}Q", reader.read(64 * count).to_bytes(8 * count, "big"))
        pushed = tuple(read_record(reader) for _ in range(reader.read(COUNT_BITS)))
        return wanted, pushed


class KVRecordsCodec(PayloadCodec):
    """Wire form of alice's reply: the requested records, counted."""

    def write(self, writer: BitWriter, payload: tuple[KVRecord, ...]) -> None:
        writer.write(len(payload), COUNT_BITS)
        for record in payload:
            write_record(writer, record)

    def read(self, reader: BitReader) -> tuple[KVRecord, ...]:
        return tuple(read_record(reader) for _ in range(reader.read(COUNT_BITS)))


def pull_request_bits(wanted: Sequence[int], pushed: Sequence[KVRecord]) -> int:
    """Exact charged size of the pull frame."""
    return COUNT_BITS + 64 * len(wanted) + records_bits(pushed)


def kv_context(options: "ReconcileOptions") -> SetReconContext:
    """The shared sketch context a kv session derives from its options.

    The universe is fixed (64-bit fingerprints).
    """
    universe = options.universe_size or FINGERPRINT_UNIVERSE
    if universe != FINGERPRINT_UNIVERSE:
        raise ParameterError(
            "kv sessions reconcile 64-bit record fingerprints; leave "
            "universe_size unset or pass 2**64"
        )
    return SetReconContext(
        universe,
        options.seed,
        options.num_hashes,
        options.backend,
        safety_factor=options.safety_factor,
    )


def _view(replica: "VersionedKV", ctx: SetReconContext) -> StoreView:
    return replica.view_for(
        SketchConfig(
            ctx.universe_size, ctx.seed, ctx.num_hashes, ctx.backend, ctx.safety_factor
        )
    )


def _in_sync_outcome(view: StoreView) -> PartyOutcome:
    return PartyOutcome(True, details={**view.outcome_details, "kv_apply": ()})


def kv_alice(
    replica: "VersionedKV", difference_bound: int | None, ctx: SetReconContext
) -> PartyGenerator:
    """Alice's side: judge bob's summary; unless in sync, the ``ibf`` flow,
    then pull request in, records back out."""
    view = _view(replica, ctx)
    summary = yield Receive(KVSummaryCodec())
    if summary is END_OF_SESSION:
        return aborted_outcome()
    in_sync = summary == (view.set_hash, view.size)
    yield Send("kv verdict", 1, payload=in_sync, codec=KVVerdictCodec())
    if in_sync:
        outcome = _in_sync_outcome(view)
    else:
        outcome = yield from _alice_exchange(replica, view, difference_bound)
    outcome.details["kv_in_sync"] = in_sync
    return outcome


def _alice_exchange(
    replica: "VersionedKV", view: StoreView, difference_bound: int | None
) -> PartyGenerator:
    outcome = yield from ibf_alice(view, difference_bound, label="kv fingerprint IBLT")
    if not outcome.success:
        return outcome
    request = yield Receive(KVPullCodec())
    if request is END_OF_SESSION:
        return aborted_outcome()
    wanted, pushed = request
    records = replica.records_for(wanted)
    yield Send("kv records", records_bits(records), payload=records, codec=KVRecordsCodec())
    outcome.details.update(kv_apply=pushed, kv_sent=len(records))
    return outcome


def kv_bob(
    replica: "VersionedKV", difference_bound: int | None, ctx: SetReconContext
) -> PartyGenerator:
    """Bob's side: send his summary; unless alice finds it equal to hers,
    the ``ibf`` flow, then pull the differing records."""
    view = _view(replica, ctx)
    size = view.size
    yield Send(
        "kv summary", summary_bits(size), payload=(view.set_hash, size), codec=KVSummaryCodec()
    )
    in_sync = yield Receive(KVVerdictCodec())
    if in_sync is END_OF_SESSION:
        return aborted_outcome()
    if in_sync:
        outcome = _in_sync_outcome(view)
    else:
        outcome = yield from _bob_exchange(replica, view, difference_bound)
    outcome.details["kv_in_sync"] = in_sync
    return outcome


def _bob_exchange(
    replica: "VersionedKV", view: StoreView, difference_bound: int | None
) -> PartyGenerator:
    outcome, difference = yield from ibf_bob_difference(view, difference_bound)
    if difference is None:
        return outcome
    # Sorted for a canonical wire image: the same difference always yields
    # byte-identical phase-two frames on every transport.
    wanted = tuple(sorted(difference.positive))
    pushed = replica.records_for(tuple(sorted(difference.negative)))
    yield Send(
        "kv pull", pull_request_bits(wanted, pushed), payload=(wanted, pushed), codec=KVPullCodec()
    )
    reply = yield Receive(KVRecordsCodec())
    if reply is END_OF_SESSION:
        return aborted_outcome()
    # Only the fingerprints are verified so far; the records are whatever the
    # peer chose to send, and are merged only if they hash to what was asked.
    if sorted(record_fingerprints(view.config.seed, reply)) != list(wanted):
        return PartyOutcome(False, details={"failure": "kv-records"})
    outcome.details.update(kv_apply=reply, kv_pushed=len(pushed))
    return outcome


def kv_parties(
    alice: "VersionedKV",
    bob: "VersionedKV",
    difference_bound: int | None,
    ctx: SetReconContext,
) -> PartyPair:
    """Both sides of one gossip round; ``difference_bound=None`` selects the
    unknown-``d`` flow.  Lazy: a side's replica is first touched when its
    generator starts, so a served session may pass ``None`` for the peer."""
    return kv_alice(alice, difference_bound, ctx), kv_bob(bob, difference_bound, ctx)
