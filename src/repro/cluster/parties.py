"""The ``kv`` gossip protocol: summary, fingerprint reconciliation, value fetch.

One gossip round between two replicas is a single session in three phases:

* **Phase 0 -- the summary prelude.**  Bob sends ``"kv summary"``: his
  fingerprint set's 64-bit whole-set verification hash and its size, both
  kept live by the :class:`~repro.store.parties.StoreView` in O(1) per
  record.  Alice answers ``"kv verdict"``: one bit, set when her view has
  the same ``(set_hash, size)``, and otherwise followed by her own size.  If
  they agree, both sides succeed with nothing to merge and the session ends
  after ``64 + bits_for_value(n) + 1`` bits, whatever the bound.  A wrong
  skip needs a 64-bit hash collision at equal size -- the same risk phase
  one's verification already accepts.  Both sides report
  ``details["kv_in_sync"]``.  A forged summary or verdict can end a session
  early, or start phase one at a larger rung (never past the top), but never
  makes anything merge.
* **Phase 1 -- set reconciliation** (only when the verdict is "differ").
  With a known bound it is the fold ladder of
  :mod:`repro.protocols.parties.setrecon` (``ladder_alice`` /
  ``ladder_bob_difference``) over each replica's live
  :class:`~repro.store.parties.StoreView` of its record fingerprint set.
  Both sides start at the smallest rung whose capacity covers the two
  sizes' difference; alice sends ``"kv fingerprint IBLT"``, the fold of her
  live table at that rung plus her whole-set hash.  Bob subtracts his own
  fold, peels and verifies incrementally; while that fails below the top he
  sends ``"kv grow"`` (one bit) and alice answers ``"kv fingerprint IBLT
  growth"``, the upper half of the next rung.  With ``difference_bound=None``
  it is the unknown-``d`` ``ibf`` exchange itself (``ibf_alice`` /
  ``ibf_bob_difference``: estimator, then one table sized from it).  The
  verified decode tells bob which fingerprints only alice holds
  (``positive``) and which only he holds (``negative``).
* **Phase 2 -- value fetch.**  Bob sends one ``"kv pull"`` frame (the
  growth request's codec with its leading bit clear): the fingerprints he
  wants resolved, together with the full records behind his own one-sided
  fingerprints (pushed so alice needs no second request).  Alice answers
  with a ``"kv records"`` frame carrying the requested records, which bob
  accepts only if they hash to exactly the fingerprints he asked for
  (failure ``"kv-records"`` otherwise).  Both frames are bit-exact
  (:func:`~repro.cluster.records.record_bits`).

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
    GROW,
    GrowOrCodec,
    SetReconContext,
    growth_refused,
    ibf_alice,
    ibf_bob_difference,
    ladder_alice,
    ladder_bob_difference,
)
from repro.protocols.wire import PayloadCodec
from repro.store.config import SketchConfig
from repro.store.parties import StoreView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.replica import VersionedKV
    from repro.protocols.options import ReconcileOptions

#: Bob's prelude payload: ``(set_hash, size)`` of his fingerprint set.
Summary = tuple[int, int]
#: Alice's answer: ``None`` when in sync, else the size of her fingerprint set.
Verdict = int | None
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
    """Wire form of alice's verdict (``None`` when the summaries agree, else
    her set size): one bit, set when they agree; the size follows as tail."""

    def write(self, writer: BitWriter, payload: Verdict) -> None:
        writer.write(int(payload is None), 1)
        if payload is not None:
            writer.write_tail(payload)

    def read(self, reader: BitReader) -> Verdict:
        return None if reader.read(1) else reader.read_tail_int()


def summary_bits(size: int) -> int:
    """Exact charged size of the summary frame."""
    return WORD_BITS + bits_for_value(size)


def verdict_bits(verdict: Verdict) -> int:
    """Exact charged size of the verdict frame."""
    return 1 if verdict is None else 1 + bits_for_value(verdict)


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


#: Bob's message after phase one's table: a growth request or the pull.
REQUEST_CODEC = GrowOrCodec(KVPullCodec())

#: Phase one's table label (the growth frames add " growth").
TABLE_LABEL = "kv fingerprint IBLT"


def pull_request_bits(wanted: Sequence[int], pushed: Sequence[KVRecord]) -> int:
    """Exact charged size of the pull frame, with its leading request bit."""
    return 1 + COUNT_BITS + 64 * len(wanted) + records_bits(pushed)


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
    return SetReconContext(universe, options.seed)


def _view(replica: "VersionedKV", ctx: SetReconContext) -> StoreView:
    return replica.view_for(SketchConfig(ctx.universe_size, ctx.seed))


def _in_sync_outcome(view: StoreView) -> PartyOutcome:
    return PartyOutcome(True, details={**view.outcome_details, "kv_apply": ()})


def kv_alice(
    replica: "VersionedKV", difference_bound: int | None, ctx: SetReconContext
) -> PartyGenerator:
    """Alice's side: judge bob's summary; unless in sync, phase one, then
    pull request in, records back out."""
    view = _view(replica, ctx)
    summary = yield Receive(KVSummaryCodec())
    if summary is END_OF_SESSION:
        return aborted_outcome()
    verdict = None if summary == (view.set_hash, view.size) else view.size
    yield Send("kv verdict", verdict_bits(verdict), payload=verdict, codec=KVVerdictCodec())
    if verdict is None:
        outcome = _in_sync_outcome(view)
    else:
        outcome = yield from _alice_exchange(replica, view, difference_bound, summary[1])
    outcome.details["kv_in_sync"] = verdict is None
    return outcome


def _alice_exchange(
    replica: "VersionedKV", view: StoreView, difference_bound: int | None, peer_size: int
) -> PartyGenerator:
    if difference_bound is None:
        outcome = yield from ibf_alice(view, None, label=TABLE_LABEL)
        if not outcome.success:
            return outcome
        request = yield Receive(REQUEST_CODEC)
        if request is GROW:  # one table, no ladder to grow
            return growth_refused(view)
    else:
        outcome, request = yield from ladder_alice(
            view, difference_bound, peer_size, REQUEST_CODEC, label=TABLE_LABEL
        )
        if not outcome.success:
            return outcome
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
    phase one, then pull the differing records."""
    view = _view(replica, ctx)
    size = view.size
    yield Send(
        "kv summary", summary_bits(size), payload=(view.set_hash, size), codec=KVSummaryCodec()
    )
    verdict = yield Receive(KVVerdictCodec())
    if verdict is END_OF_SESSION:
        return aborted_outcome()
    if verdict is None:
        outcome = _in_sync_outcome(view)
    else:
        outcome = yield from _bob_exchange(replica, view, difference_bound, verdict)
    outcome.details["kv_in_sync"] = verdict is None
    return outcome


def _bob_exchange(
    replica: "VersionedKV", view: StoreView, difference_bound: int | None, peer_size: int
) -> PartyGenerator:
    if difference_bound is None:
        outcome, difference = yield from ibf_bob_difference(view, None)
    else:
        outcome, difference = yield from ladder_bob_difference(
            view, difference_bound, peer_size, REQUEST_CODEC, label="kv grow"
        )
    if difference is None:
        return outcome
    # Sorted for a canonical wire image: the same difference always yields
    # byte-identical phase-two frames on every transport.
    wanted = tuple(sorted(difference.positive))
    pushed = replica.records_for(tuple(sorted(difference.negative)))
    yield Send(
        "kv pull", pull_request_bits(wanted, pushed), payload=(wanted, pushed), codec=REQUEST_CODEC
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
