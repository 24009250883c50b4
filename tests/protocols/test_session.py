"""Session-loop mechanics: scheduling, END delivery, errors, accounting."""

import pytest

from repro.comm import Transcript
from repro.errors import ParameterError, ReconciliationError
from repro.protocols import (
    END_OF_SESSION,
    NULL_CODEC,
    PartyOutcome,
    Receive,
    ReconcileOptions,
    Send,
    SerializingTransport,
    Session,
    WireAccountingError,
    WireError,
)
from repro.protocols.party import aborted_outcome
from repro.protocols.session import run_session
from repro.protocols.wire import PayloadCodec

#: Sizing choices that are constants of the modules owning them, so no
#: option may name them.
SIZING_CONSTANTS = (
    "num_hashes", "child_hash_bits", "signature_bits", "safety_factor", "estimate_safety",
    "level_slack", "initial_bound", "max_bound", "fallback_to_all_children",
)


class _FatCodec(PayloadCodec):
    """Deliberately encodes more bytes than the charged size allows."""

    def write(self, writer, payload):
        writer.write(0, 256)

    def read(self, reader):
        return None


def _sender(label="ping", size_bits=64, codec=NULL_CODEC, payload=None):
    yield Send(label, size_bits, payload=payload, codec=codec)
    return PartyOutcome(True)


def _receiver():
    payload = yield Receive(NULL_CODEC)
    return PartyOutcome(True, recovered=payload)


class TestSessionLoop:
    def test_basic_exchange_and_outcome_merge(self):
        result = run_session(_sender(), _receiver())
        assert result.success
        assert result.transcript.num_rounds == 1
        assert result.transcript.messages[0].label == "ping"

    def test_end_of_session_delivered_to_waiting_party(self):
        def waiting_bob():
            first = yield Receive(NULL_CODEC)
            second = yield Receive(NULL_CODEC)
            assert second is END_OF_SESSION
            return PartyOutcome(True, recovered=first)

        result = run_session(_sender(payload=None), waiting_bob())
        assert result.success

    def test_deadlock_detected(self):
        def stuck():
            yield Receive(NULL_CODEC)
            return PartyOutcome(True)

        with pytest.raises(ReconciliationError, match="deadlock"):
            run_session(stuck(), stuck())

    def test_invalid_yield_rejected(self):
        def bad():
            yield "not a command"
            return PartyOutcome(True)

        with pytest.raises(ReconciliationError, match="Send or Receive"):
            run_session(bad(), _receiver())

    def test_party_details_merge_with_bob_winning(self):
        def alice():
            yield Send("m", 8, codec=NULL_CODEC)
            return PartyOutcome(True, details={"shared": "alice", "alice_only": 1})

        def bob():
            yield Receive(NULL_CODEC)
            return PartyOutcome(True, details={"shared": "bob", "bob_only": 2})

        result = run_session(alice(), bob())
        assert result.details == {"shared": "bob", "alice_only": 1, "bob_only": 2}

    def test_failure_on_either_side_fails_the_result(self):
        def failing_alice():
            yield Send("m", 8, codec=NULL_CODEC)
            return PartyOutcome(False, details={"failure": "alice-side"})

        result = run_session(failing_alice(), _receiver())
        assert not result.success
        assert result.recovered is None
        assert result.details["failure"] == "alice-side"

    def test_aborted_outcome_flag(self):
        outcome = aborted_outcome()
        assert outcome.aborted and not outcome.success and outcome.details == {}

    def test_appends_to_existing_transcript(self):
        transcript = Transcript()
        transcript.send("bob", "earlier", 8)
        result = run_session(_sender(), _receiver(), transcript=transcript)
        assert len(result.transcript) == 2
        assert result.transcript.num_rounds == 2  # direction flipped


class TestSerializingTransportChecks:
    def test_missing_codec_rejected(self):
        with pytest.raises(WireError, match="no wire codec"):
            run_session(_sender(codec=None), _receiver())

    def test_codec_less_receive_rejected(self):
        # The receiver decodes with its own codec only, never the sender's.
        def codec_less_receiver():
            payload = yield Receive()
            return PartyOutcome(True, recovered=payload)

        with pytest.raises(WireError, match="no wire codec"):
            run_session(_sender(), codec_less_receiver())

    def test_over_budget_message_rejected_when_strict(self):
        # Every serializing transport is strict; the over-budget message is
        # still measured before it is refused.
        transport = SerializingTransport()
        with pytest.raises(WireAccountingError, match="charged"):
            run_session(
                _sender(size_bits=8, codec=_FatCodec()), _receiver(), transport=transport
            )
        assert len(transport.measurements) == 1
        assert not transport.measurements[0].within_budget


class TestReconcileOptions:
    def test_merged_rejects_unknown(self):
        with pytest.raises(ParameterError, match="unknown reconcile option"):
            ReconcileOptions().merged(nope=1)

    def test_the_estimator_is_not_an_option(self):
        # Every unknown-d prelude uses the one L0 sketch; there is no factory knob.
        with pytest.raises(ParameterError, match="unknown reconcile option"):
            ReconcileOptions().merged(estimator_factory=lambda seed: None)

    @pytest.mark.parametrize("name", SIZING_CONSTANTS)
    def test_sizing_is_not_an_option(self, name):
        # Hash counts, widths and slacks are module constants, not options.
        with pytest.raises(ParameterError, match="unknown reconcile option"):
            ReconcileOptions().merged(**{name: 1})

    def test_merged_returns_new_frozen_copy(self):
        base = ReconcileOptions(seed=1)
        merged = base.merged(seed=2, universe_size=10)
        assert base.seed == 1 and merged.seed == 2
        assert merged.universe_size == 10

    def test_require(self):
        with pytest.raises(ParameterError, match="universe_size"):
            ReconcileOptions().require("universe_size")
        ReconcileOptions(universe_size=4).require("universe_size")


class TestTranscriptHelpers:
    def test_empty_label_rejected(self):
        with pytest.raises(ParameterError, match="label"):
            Transcript().send("alice", "", 8)

    def test_by_sender_and_rounds(self):
        transcript = Transcript()
        transcript.send("alice", "a1", 10)
        transcript.send("alice", "a2", 5)
        transcript.send("bob", "b1", 7)
        grouped = transcript.by_sender()
        assert [m.label for m in grouped["alice"]] == ["a1", "a2"]
        assert [m.label for m in grouped["bob"]] == ["b1"]
        assert transcript.bits_by_round() == {1: 15, 2: 7}
        summary = transcript.round_summary()
        assert summary == [
            {"round": 1, "sender": "alice", "bits": 15, "messages": 2},
            {"round": 2, "sender": "bob", "bits": 7, "messages": 1},
        ]
