"""Cross-kernel determinism: same seed => identical CPI transcripts/results.

Companion to ``test_cross_backend_determinism`` (cell stores): the field
kernels (:mod:`repro.field.kernels`) must be observationally identical.  A
protocol run on the pure-Python reference kernel and one on the vectorized
NumPy kernel must produce byte-identical ``CPIMessage`` evaluations,
identical transcripts, and identical recovered sets -- for the flat CPI
protocol and for the multiround set-of-sets protocol whose per-child
payloads embed CPI messages.
"""

import random

import pytest

from repro import reconcile
from repro.core.setrecon.cpi import CPIMessage, cpi_decode, cpi_encode
from repro.field.kernels import NumpyFieldKernel
from repro.workloads import sets_of_sets_instance

UNIVERSE = 1 << 20


def make_sets(size, difference, seed):
    rng = random.Random(seed)
    alice = set(rng.sample(range(UNIVERSE), size))
    bob = set(alice)
    for element in rng.sample(sorted(alice), difference // 2):
        bob.discard(element)
    while len(alice ^ bob) < difference:
        bob.add(rng.randrange(UNIVERSE))
    return alice, bob


def transcript_fingerprint(transcript):
    """Message metadata with CPI payloads rendered canonically."""
    fingerprint = []
    for message in transcript.messages:
        payload = message.payload
        rendered = []
        stack = [payload]
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


class TestCPIAcrossKernels:
    @pytest.mark.parametrize("difference", [2, 9, 24])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_identical_messages_and_recovery(self, difference, seed):
        alice, bob = make_sets(300, difference, seed)
        message_py = cpi_encode(alice, difference, UNIVERSE, field_kernel="python")
        message_np = cpi_encode(alice, difference, UNIVERSE, field_kernel="numpy")
        assert message_py == message_np  # bit-identical evaluations
        decode_py = cpi_decode(message_py, bob, UNIVERSE, seed, field_kernel="python")
        decode_np = cpi_decode(message_py, bob, UNIVERSE, seed, field_kernel="numpy")
        assert decode_py == decode_np
        assert decode_py[0] and decode_py[1] == alice

    def test_failure_cases_identical(self):
        # Difference exceeds the bound: both kernels must fail identically.
        alice, bob = make_sets(200, 20, seed=3)
        message = cpi_encode(alice, 4, UNIVERSE, field_kernel="numpy")
        assert cpi_decode(message, bob, UNIVERSE, 1, field_kernel="python") == (
            False,
            None,
        )
        assert cpi_decode(message, bob, UNIVERSE, 1, field_kernel="numpy") == (
            False,
            None,
        )

    def test_transcripts_identical(self):
        alice, bob = make_sets(150, 11, seed=5)
        result_py = reconcile(
            alice, bob, protocol="cpi", difference_bound=12, universe_size=UNIVERSE, seed=9,
            field_kernel="python",
        )
        result_np = reconcile(
            alice, bob, protocol="cpi", difference_bound=12, universe_size=UNIVERSE, seed=9,
            field_kernel="numpy",
        )
        assert result_py.success and result_np.success
        assert result_py.recovered == result_np.recovered == alice
        assert transcript_fingerprint(result_py.transcript) == transcript_fingerprint(
            result_np.transcript
        )

    def test_auto_kernel_matches_forced(self):
        alice, bob = make_sets(120, 6, seed=11)
        auto = reconcile(
            alice, bob, protocol="cpi", difference_bound=8, universe_size=UNIVERSE, seed=2,
        )
        forced = reconcile(
            alice, bob, protocol="cpi", difference_bound=8, universe_size=UNIVERSE, seed=2,
            field_kernel="python",
        )
        assert auto.success and forced.success
        assert auto.recovered == forced.recovered
        assert transcript_fingerprint(auto.transcript) == transcript_fingerprint(
            forced.transcript
        )


class TestMultiroundAcrossKernels:
    def run(self, field_kernel, unknown=False):
        instance = sets_of_sets_instance(
            num_children=24,
            child_size=12,
            universe_size=4096,
            num_changes=10,
            seed=99,
            max_children_touched=5,
        )
        if unknown:
            return reconcile(
                instance.alice, instance.bob, protocol="multiround", difference_bound=None,
                universe_size=instance.universe_size,
                max_child_size=instance.max_child_size, seed=17, field_kernel=field_kernel,
            )
        return reconcile(
            instance.alice, instance.bob, protocol="multiround",
            difference_bound=instance.planted_difference,
            universe_size=instance.universe_size, max_child_size=instance.max_child_size,
            seed=17, field_kernel=field_kernel,
        )

    @pytest.mark.parametrize("unknown", [False, True])
    def test_identical_results_and_transcripts(self, unknown):
        result_py = self.run("python", unknown)
        result_np = self.run("numpy", unknown)
        assert result_py.success and result_np.success
        assert result_py.recovered == result_np.recovered
        assert result_py.details == result_np.details
        assert transcript_fingerprint(result_py.transcript) == transcript_fingerprint(
            result_np.transcript
        )
        # The protocol must actually have exercised the CPI path for this
        # instance, otherwise the kernel comparison is vacuous.
        assert result_py.details["cpi_payloads"] > 0


class TestReferenceKernelIsPurePython:
    """``field_kernel="python"`` runs no NumPy-kernel code, even at a modulus
    the NumPy kernel would take: the choice is passed down explicitly."""

    @pytest.fixture(autouse=True)
    def numpy_kernel_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the NumPy field kernel ran")

        for name in dir(NumpyFieldKernel):
            if not name.startswith("_") and callable(getattr(NumpyFieldKernel, name)):
                monkeypatch.setattr(NumpyFieldKernel, name, refuse)

    def test_cpi_session(self):
        alice, bob = make_sets(150, 11, seed=5)
        result = reconcile(
            alice, bob, protocol="cpi", difference_bound=12, universe_size=UNIVERSE, seed=9,
            field_kernel="python",
        )
        assert result.success and result.recovered == alice
        with pytest.raises(AssertionError, match="NumPy field kernel ran"):
            reconcile(
                alice, bob, protocol="cpi", difference_bound=12, universe_size=UNIVERSE,
                seed=9,
            )

    @pytest.mark.parametrize("unknown", [False, True])
    def test_multiround_session(self, unknown):
        result = TestMultiroundAcrossKernels().run("python", unknown)
        assert result.success and result.details["cpi_payloads"] > 0
