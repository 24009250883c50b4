"""Cross-backend determinism: same seed => identical transcripts and results.

The cell-store backends (:mod:`repro.iblt.backends`) must be observationally
identical: for the same seed and inputs, a protocol run with the pure-Python
store and one with the NumPy store must exchange byte-identical messages and
return identical :class:`~repro.comm.ReconciliationResult`\\ s.  These tests
pin that guarantee for the flat set-reconciliation protocol and the
structured set-of-sets protocols (IBLT-of-IBLTs, cascading, multiround), all
of which route their child encodings through the batched
:class:`~repro.iblt.multi.IBLTArray` pipeline.

The same guarantee covers the fallback: ``backend="numpy"`` must produce
byte-identical transcripts when it falls back to the reference store (NumPy
missing, or checksums wider than 64 bits).  Keys wider than 64 bits stay on
the NumPy store, as limbs.
"""

import random

import pytest

from repro import reconcile
from repro.config import resolve_cell_backend
from repro.core.setsofsets.types import SetOfSets
from repro.iblt import IBLT, IBLTParameters, NumpyCellStore

pytestmark = pytest.mark.skipif(
    not NumpyCellStore.available(), reason="NumPy not installed"
)


def transcript_fingerprint(transcript):
    """Message metadata plus canonical payload bytes (tables serialize)."""
    fingerprint = []
    for message in transcript.messages:
        payload = message.payload
        serialized = []
        stack = [payload]
        while stack:
            item = stack.pop()
            if isinstance(item, IBLT):
                serialized.append(item.serialize())
            elif isinstance(item, (list, tuple)):
                stack.extend(item)
        fingerprint.append(
            (message.sender, message.round_index, message.label, message.size_bits,
             tuple(serialized))
        )
    return fingerprint


def run_known_d(backend):
    rng = random.Random(1234)
    shared = set(rng.sample(range(1 << 30), 500))
    alice = shared | {1 << 30, (1 << 30) + 7}
    bob = shared | {(1 << 30) + 100}
    return reconcile(
        alice, bob, protocol="ibf", difference_bound=8, universe_size=1 << 31, seed=77,
        backend=backend,
    )


def run_cascading(backend):
    alice = SetOfSets([{1, 2, 3}, {4, 5, 6}, {7, 8}, {9, 10, 11, 12}])
    bob = SetOfSets([{1, 2, 3}, {4, 5, 600}, {7, 8}, {9, 10, 11}])
    return reconcile(
        alice, bob, protocol="cascading", difference_bound=4, universe_size=1024,
        max_child_size=4, seed=55, backend=backend,
    )


def _structured_instance():
    rng = random.Random(4321)
    children = [
        frozenset(rng.sample(range(1 << 16), 6)) for _ in range(32)
    ]
    bob_children = [set(child) for child in children]
    bob_children[3].add(60000)
    bob_children[11].discard(min(bob_children[11]))
    alice = SetOfSets(children)
    bob = SetOfSets(bob_children)
    return alice, bob


def run_iblt_of_iblts(backend):
    alice, bob = _structured_instance()
    return reconcile(
        alice, bob, protocol="iblt_of_iblts", difference_bound=6, universe_size=1 << 16,
        seed=66, backend=backend,
    )


def run_multiround(backend):
    alice, bob = _structured_instance()
    return reconcile(
        alice, bob, protocol="multiround", difference_bound=6, universe_size=1 << 16,
        max_child_size=7, seed=88, backend=backend,
    )


class TestKnownD:
    def test_identical_results(self):
        py = run_known_d("python")
        np_result = run_known_d("numpy")
        assert py.success and np_result.success
        assert py.recovered == np_result.recovered
        assert py.details == np_result.details

    def test_byte_identical_transcripts(self):
        py = run_known_d("python")
        np_result = run_known_d("numpy")
        assert transcript_fingerprint(py.transcript) == transcript_fingerprint(
            np_result.transcript
        )


class TestCascading:
    def test_identical_results(self):
        py = run_cascading("python")
        np_result = run_cascading("numpy")
        assert py.success and np_result.success
        assert py.recovered == np_result.recovered
        assert py.details == np_result.details

    def test_byte_identical_transcripts(self):
        py = run_cascading("python")
        np_result = run_cascading("numpy")
        assert transcript_fingerprint(py.transcript) == transcript_fingerprint(
            np_result.transcript
        )


class TestIBLTofIBLTs:
    def test_identical_results(self):
        py = run_iblt_of_iblts("python")
        np_result = run_iblt_of_iblts("numpy")
        assert py.success and np_result.success
        assert py.recovered == np_result.recovered
        assert py.details == np_result.details

    def test_byte_identical_transcripts(self):
        py = run_iblt_of_iblts("python")
        np_result = run_iblt_of_iblts("numpy")
        assert transcript_fingerprint(py.transcript) == transcript_fingerprint(
            np_result.transcript
        )


class TestMultiround:
    def test_identical_results(self):
        py = run_multiround("python")
        np_result = run_multiround("numpy")
        assert py.success and np_result.success
        assert py.recovered == np_result.recovered
        assert py.details == np_result.details

    def test_byte_identical_transcripts(self):
        py = run_multiround("python")
        np_result = run_multiround("numpy")
        assert transcript_fingerprint(py.transcript) == transcript_fingerprint(
            np_result.transcript
        )


class TestDefaultBackendInvariance:
    def test_auto_matches_forced_backends(self):
        auto = run_known_d(None)
        forced = run_known_d("python")
        assert auto.recovered == forced.recovered
        assert transcript_fingerprint(auto.transcript) == transcript_fingerprint(
            forced.transcript
        )


class TestFallbackChain:
    def params(self, **kwargs):
        defaults = dict(num_cells=64, key_bits=32, seed=1)
        defaults.update(kwargs)
        return IBLTParameters(**defaults)

    def test_wide_keys_stay_on_numpy(self):
        wide = self.params(key_bits=80)
        assert resolve_cell_backend("numpy", wide).name == "numpy"
        table = IBLT(wide, backend="numpy")
        assert table.backend == "numpy"
        table.insert_batch([1 << 70, 5])
        result = table.try_decode()
        assert result.success and result.positive == {1 << 70, 5}

    def test_numpy_absent_runs_reference_chain(self, monkeypatch):
        """With NumPy reported unavailable, ``numpy`` requests degrade to the
        reference store and still produce the exact python-tier transcript."""
        monkeypatch.setattr(
            NumpyCellStore, "available", classmethod(lambda cls: False)
        )
        assert resolve_cell_backend("numpy", self.params()).name == "python"
        degraded = run_iblt_of_iblts("numpy")
        monkeypatch.undo()
        py = run_iblt_of_iblts("python")
        assert degraded.recovered == py.recovered
        assert transcript_fingerprint(degraded.transcript) == (
            transcript_fingerprint(py.transcript)
        )
