"""The field kernel against the reference kernel, and pinned wide-modulus bytes.

Companion to ``test_cross_backend_determinism`` (cell stores).  A protocol
run with every GF(p) call routed to the pure-Python oracle
(``tests/reference_kernel.py``) and one on the library's kernel must produce
identical ``CPIMessage`` evaluations, transcripts and recovered sets -- for
the flat CPI protocol and for the multiround set-of-sets protocol whose
per-child payloads embed CPI messages -- at a prime below ``2**31``
(``int64`` arrays) and at universes of ``2**40`` and ``2**64`` (arrays of
Python ints).

The wide universes are also pinned over the bytes: SHA-256 of every frame of
one session, recorded when those primes still ran on the reference kernel.
"""

import hashlib
import random
from unittest import mock

import pytest

from repro import reconcile
from repro.core.setrecon.cpi import CPIMessage, cpi_decode, cpi_encode
from repro.core.setsofsets.types import SetOfSets
from repro.field import kernels
from repro.protocols.transports import SerializingTransport

from reference_kernel import PythonFieldKernel

#: ``{id: universe size}``: the CPI prime is below 2**31 for the first and
#: above it for the other two.
UNIVERSES = {"u2e20": 1 << 20, "u2e40": 1 << 40, "u2e64": 1 << 64}


def oracle_run(func, *args, **kwargs):
    """``func(*args, **kwargs)`` with every GF(p) call on the reference kernel."""
    with mock.patch.object(kernels, "_KERNEL", PythonFieldKernel()):
        return func(*args, **kwargs)


def make_sets(size, difference, seed, universe):
    rng = random.Random(seed)
    alice = set()
    while len(alice) < size:
        alice.add(rng.randrange(universe))
    bob = set(alice)
    for element in rng.sample(sorted(alice), difference // 2):
        bob.discard(element)
    while len(alice ^ bob) < difference:
        bob.add(rng.randrange(universe))
    return alice, bob


def make_parents(universe, seed):
    """24 children of 12 elements; bob's first 5 each trade one element."""
    rng = random.Random(seed)
    children = []
    for _ in range(24):
        child = set()
        while len(child) < 12:
            child.add(rng.randrange(universe))
        children.append(child)
    bob = [set(child) for child in children]
    for index in range(5):
        bob[index].discard(min(bob[index]))
        bob[index].add(rng.randrange(universe))
    return SetOfSets(children), SetOfSets(bob)


def transcript_fingerprint(transcript):
    """Message metadata with CPI payloads rendered canonically."""
    fingerprint = []
    for message in transcript.messages:
        rendered = []
        stack = [message.payload]
        while stack:
            item = stack.pop()
            if isinstance(item, CPIMessage):
                rendered.append(
                    (item.set_size, item.evaluations, item.difference_bound, item.prime)
                )
            elif isinstance(item, (list, tuple)):
                stack.extend(item)
        fingerprint.append(
            (
                message.sender,
                message.round_index,
                message.label,
                message.size_bits,
                tuple(rendered),
            )
        )
    return fingerprint


class RecordingTransport(SerializingTransport):
    """A serializing transport that also keeps every frame's exact bytes."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def on_send(self, sender, send):
        data = super().on_send(sender, send)
        self.frames.append((sender, send.label, send.size_bits, data))
        return data


def frames_digest(frames):
    digest = hashlib.sha256()
    for sender, label, size_bits, data in frames:
        digest.update(f"{sender}|{label}|{size_bits}|{len(data)}|".encode())
        digest.update(data)
    return digest.hexdigest()


def cpi_session(universe, transport=None):
    alice, bob = make_sets(150, 11, universe.bit_length() - 1, universe)
    return alice, reconcile(
        alice, bob, protocol="cpi", difference_bound=12, universe_size=universe, seed=9,
        transport=transport,
    )


def multiround_session(universe, unknown, transport=None):
    alice, bob = make_parents(universe, universe.bit_length() - 1)
    return alice, reconcile(
        alice, bob, protocol="multiround", difference_bound=None if unknown else 10,
        universe_size=universe, max_child_size=13, seed=17, transport=transport,
    )


@pytest.mark.parametrize("universe", UNIVERSES.values(), ids=UNIVERSES)
class TestCPIAgainstTheOracle:
    @pytest.mark.parametrize("difference", [2, 9, 24])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_identical_messages_and_recovery(self, universe, difference, seed):
        alice, bob = make_sets(300, difference, seed, universe)
        message = cpi_encode(alice, difference, universe)
        assert message == oracle_run(cpi_encode, alice, difference, universe)
        decode = cpi_decode(message, bob, universe, seed)
        assert decode == oracle_run(cpi_decode, message, bob, universe, seed)
        assert decode[0] and decode[1] == alice

    def test_failure_cases_identical(self, universe):
        # The difference exceeds the bound: both kernels fail identically.
        alice, bob = make_sets(200, 20, 3, universe)
        message = cpi_encode(alice, 4, universe)
        assert cpi_decode(message, bob, universe, 1) == (False, None)
        assert oracle_run(cpi_decode, message, bob, universe, 1) == (False, None)

    def test_transcripts_identical(self, universe):
        alice, result = cpi_session(universe)
        _, reference = oracle_run(cpi_session, universe)
        assert result.success and reference.success
        assert result.recovered == reference.recovered == alice
        assert transcript_fingerprint(result.transcript) == transcript_fingerprint(
            reference.transcript
        )


@pytest.mark.parametrize("universe", UNIVERSES.values(), ids=UNIVERSES)
@pytest.mark.parametrize("unknown", [False, True], ids=["known", "unknown"])
def test_multiround_identical_results_and_transcripts(universe, unknown):
    alice, result = multiround_session(universe, unknown)
    _, reference = oracle_run(multiround_session, universe, unknown)
    assert result.success and reference.success
    assert result.recovered == reference.recovered == alice
    assert result.details == reference.details
    assert transcript_fingerprint(result.transcript) == transcript_fingerprint(
        reference.transcript
    )
    # The protocol must actually have exercised the CPI path for this
    # instance, otherwise the kernel comparison is vacuous.
    assert result.details["cpi_payloads"] > 0


#: ``{(protocol, universe bits, unknown d): (frames digest, total bits)}``,
#: recorded at commit c6cdcd3, where these primes (all above 2**31) ran on
#: the pure-Python reference kernel.
WIDE_PINS = {
    ("cpi", 40, False): (
        "c310afc8d994c7d71cf172188a19744f94667605673cce91832eb9b6a20b11ed", 541,
    ),
    ("cpi", 64, False): (
        "cbf833777519358e302447c06bd3ef4221fe8d6aaa70d9bcd2cf24092f286067", 853,
    ),
    ("multiround", 40, False): (
        "b7bcd5dc7fa09ee421b39b40b6e9ee96910e997948a9a50b19248aa3b8fc13e8", 11347,
    ),
    ("multiround", 40, True): (
        "c48a73cb2193fb320efd40e438ff4f8f7f5773240e59020928725ddc3d18c028", 17363,
    ),
    ("multiround", 64, False): (
        "3ffc2069daaa627da3449d56d9c38a181a2dd0915ba982ba019cb99e26098c7f", 12123,
    ),
    ("multiround", 64, True): (
        "43a4ed7313df1a7af9e2b5b3c596d3f4f25eafe5c234a2c8b4554881758f3b6b", 19565,
    ),
}


@pytest.mark.parametrize("case", WIDE_PINS, ids=lambda case: "-".join(map(str, case)))
def test_wide_modulus_frames_match_the_recorded_pins(case):
    protocol, bits, unknown = case
    transport = RecordingTransport()
    if protocol == "cpi":
        alice, result = cpi_session(1 << bits, transport)
    else:
        alice, result = multiround_session(1 << bits, unknown, transport)
    assert result.success and result.recovered == alice
    assert (frames_digest(transport.frames), result.transcript.total_bits) == WIDE_PINS[case]
