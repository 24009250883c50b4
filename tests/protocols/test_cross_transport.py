"""Cross-transport determinism and accounting verification.

For every registered protocol: the default in-process session and the socket
transport (two endpoints over a real byte stream) must produce identical
results and transcripts, both must put the same bytes on the wire, and every
serialized message must fit the bits its transcript entry charged (plus the
codec's documented framing).
"""

import functools
import socket
import threading

import pytest

import repro
from repro.protocols import SerializingTransport, SocketTransport, run_party
from repro.protocols.options import ReconcileOptions
from repro.protocols.parties.setsofsets import context_for, multiround_parties
from repro.protocols.registry import get, names
from repro.protocols.session import run_session

from protocol_fixtures import protocol_instances

_INSTANCES = protocol_instances()


def transcript_meta(transcript):
    return [
        (m.sender, m.round_index, m.label, m.size_bits) for m in transcript.messages
    ]


def run_over_socketpair(alice_party, bob_party):
    """Drive the two parties in two threads over a socketpair; returns
    ``{role: (outcome, transcript, transport)}``."""
    left, right = socket.socketpair()
    parties = {"alice": (alice_party, left), "bob": (bob_party, right)}
    results = {}

    def drive(role):
        party, sock = parties[role]
        transport = SocketTransport(sock, role)
        results[role] = (*run_party(party, transport), transport)

    threads = [threading.Thread(target=drive, args=(role,)) for role in parties]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    left.close()
    right.close()
    assert not any(thread.is_alive() for thread in threads)
    assert set(results) == set(parties), "an endpoint raised"
    return results


def socket_session(protocol, **overrides):
    alice, bob, kwargs = _INSTANCES[protocol]
    options = ReconcileOptions(seed=99).merged(**{**kwargs, **overrides})
    return run_over_socketpair(*get(protocol).build(alice, bob, options))


def assert_same_session(result, endpoints):
    """A default session's result equals what both socket endpoints saw."""
    (alice, alice_transcript, _), (bob, bob_transcript, _) = (
        endpoints["alice"], endpoints["bob"],
    )
    assert result.success == (alice.success and bob.success)
    assert result.recovered == (bob.recovered if result.success else None)
    assert result.attempts == max(alice.attempts, bob.attempts)
    assert transcript_meta(alice_transcript) == transcript_meta(bob_transcript)
    assert transcript_meta(result.transcript) == transcript_meta(bob_transcript)


@functools.cache
def _runs(protocol):
    """One default session (with its transport kept) and one socket session."""
    alice, bob, kwargs = _INSTANCES[protocol]
    transport = SerializingTransport()
    result = repro.reconcile(
        alice, bob, protocol=protocol, seed=99, transport=transport, **kwargs
    )
    return result, transport, socket_session(protocol)


def test_every_registered_protocol_has_an_instance():
    # A protocol registered without cross-transport coverage must fail here.
    assert set(_INSTANCES) == set(names())


@pytest.mark.parametrize("protocol", sorted(_INSTANCES))
class TestCrossTransport:
    def test_identical_results_and_transcripts(self, protocol):
        result, _, endpoints = _runs(protocol)
        assert result.success, result.details
        assert_same_session(result, endpoints)

    def test_socket_puts_the_same_bytes_on_the_wire(self, protocol):
        _, transport, endpoints = _runs(protocol)
        sent = {role: iter(endpoints[role][2].measurements) for role in endpoints}
        _, transcript, _ = endpoints["bob"]
        socket_measurements = [next(sent[m.sender]) for m in transcript.messages]
        assert socket_measurements == transport.measurements

    def test_measured_bytes_within_charged_bits(self, protocol):
        _, transport, _ = _runs(protocol)
        assert transport.measurements, "serializing transport saw no messages"
        for measurement in transport.measurements:
            assert measurement.within_budget, (
                measurement.label,
                measurement.measured_bytes,
                measurement.budget_bytes,
            )

    def test_framing_slack_is_small(self, protocol):
        # Documented framing must stay a rounding error next to the charged
        # bits: per message, at most 32 header bits plus 57 bits for each
        # 121-bit-minimum multiround child entry -- bounded here by half the
        # charged size plus one word.
        _, transport, _ = _runs(protocol)
        for measurement in transport.measurements:
            assert measurement.framing_bits <= measurement.charged_bits // 2 + 64, (
                measurement.label,
                measurement.framing_bits,
                measurement.charged_bits,
            )


@pytest.mark.parametrize("protocol", sorted(_INSTANCES))
def test_unknown_d_variants_cross_transport(protocol):
    spec = get(protocol)
    if not spec.supports_unknown_d:
        pytest.skip("known-d only")
    alice, bob, kwargs = _INSTANCES[protocol]
    kwargs = dict(kwargs, difference_bound=None)
    transport = SerializingTransport()
    result = repro.reconcile(
        alice, bob, protocol=protocol, seed=99, transport=transport, **kwargs
    )
    assert_same_session(result, socket_session(protocol, difference_bound=None))
    for measurement in transport.measurements:
        assert measurement.within_budget, measurement


def test_failure_paths_cross_transport():
    # An undersized bound makes the multiround hash IBLT fail to peel; both
    # transports must report the identical truncated transcript and details.
    inst_alice, inst_bob, kwargs = _INSTANCES["multiround"]
    ctx = context_for(inst_alice, inst_bob, kwargs["universe_size"], 3,
                      max_child_size=16, differing_children_bound=1)
    result = run_session(*multiround_parties(inst_alice, inst_bob, 1, ctx))
    endpoints = run_over_socketpair(*multiround_parties(inst_alice, inst_bob, 1, ctx))
    assert not result.success
    assert_same_session(result, endpoints)
    alice, _, _ = endpoints["alice"]
    bob, _, _ = endpoints["bob"]
    assert result.details == {**alice.details, **bob.details}
