"""Cross-store determinism: every table a protocol sends, against the reference store.

The protocols build every IBLT on the library's one cell store
(:mod:`repro.iblt.backends`).  These tests run the flat set-reconciliation
protocol and the structured set-of-sets protocols (IBLT-of-IBLTs, cascading,
multiround), all of which route their child encodings through the batched
:class:`~repro.iblt.multi.IBLTArray` pipeline, and check each table a session
sends against the reference store (``tests/reference_store.py``): read back
onto it, the table holds the same cells, peels the same keys in the same
rounds, and folds, halves and unfolds to the same tables.  Alice's ``ibf``
table is also rebuilt from her set on the reference store, bit for bit.

Every name ``backend=`` accepts (``None``, ``"auto"``, ``"numpy"``) must give
the same results and byte-identical transcripts.  Keys wider than 64 bits
stay on the NumPy store, as limbs.
"""

import random

import pytest

import reference_store
from reference_store import peel_by_round
from repro import reconcile
from repro.core.setsofsets.types import SetOfSets
from repro.errors import ParameterError
from repro.iblt import IBLT, IBLTParameters
from repro.protocols.parties.setrecon import SetReconContext

NAMES = [None, "auto", "numpy"]


def payload_tables(payload):
    """Every IBLT in one message's payload."""
    tables = []
    stack = [payload]
    while stack:
        item = stack.pop()
        if isinstance(item, IBLT):
            tables.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return tables


def sent_tables(transcript):
    """Every IBLT the session sent, in send order."""
    return [table for message in transcript.messages for table in payload_tables(message.payload)]


def transcript_fingerprint(transcript):
    """Message metadata plus canonical payload bytes (tables serialize)."""
    return [
        (
            message.sender,
            message.round_index,
            message.label,
            message.size_bits,
            tuple(table.serialize() for table in payload_tables(message.payload)),
        )
        for message in transcript.messages
    ]


def assert_agrees_with_reference(table):
    """``table`` read onto the reference store: same cells, integer, peel
    rounds and decode, and the same fold, upper half and unfold."""
    reference = reference_store.deserialize(table.params, table.serialize())
    assert reference == table
    assert reference_store.serialize(reference) == table.serialize()
    assert reference.try_decode() == table.try_decode()
    assert peel_by_round(reference) == peel_by_round(table)
    params = table.params
    if params.num_cells % (2 * params.num_hashes) == 0:
        half = params.num_cells // 2
        assert reference.fold(half) == table.fold(half)
        assert reference.upper_half() == table.upper_half()
        assert reference.fold(half).unfold(reference.upper_half()) == table


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


class _Protocol:
    """The checks every protocol below runs; ``run`` is its session."""

    @staticmethod
    def run(backend):
        raise NotImplementedError

    def test_identical_results(self):
        results = [self.run(name) for name in NAMES]
        assert all(result.success for result in results)
        for result in results[1:]:
            assert result.recovered == results[0].recovered
            assert result.details == results[0].details

    def test_byte_identical_transcripts(self):
        fingerprints = [transcript_fingerprint(self.run(name).transcript) for name in NAMES]
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    def test_every_sent_table_agrees_with_the_reference_store(self):
        tables = sent_tables(self.run(None).transcript)
        assert tables
        for table in tables:
            assert_agrees_with_reference(table)


class TestKnownD(_Protocol):
    run = staticmethod(run_known_d)

    def test_alice_table_rebuilds_on_the_reference_store(self):
        rng = random.Random(1234)
        alice = set(rng.sample(range(1 << 30), 500)) | {1 << 30, (1 << 30) + 7}
        (sent,) = sent_tables(run_known_d(None).transcript)
        params = SetReconContext(1 << 31, 77).table_params(8)
        assert sent.params == params
        rebuilt = reference_store.table_of(params, alice)
        assert reference_store.serialize(rebuilt) == sent.serialize()


class TestCascading(_Protocol):
    run = staticmethod(run_cascading)


class TestIBLTofIBLTs(_Protocol):
    run = staticmethod(run_iblt_of_iblts)


class TestMultiround(_Protocol):
    run = staticmethod(run_multiround)


class TestDefaultBackendInvariance:
    def test_auto_matches_forced_backends(self):
        auto = run_known_d(None)
        forced = run_known_d("numpy")
        assert auto.recovered == forced.recovered
        assert transcript_fingerprint(auto.transcript) == transcript_fingerprint(
            forced.transcript
        )

    @pytest.mark.parametrize("run", [run_known_d, run_iblt_of_iblts], ids=["ibf", "iblt_of_iblts"])
    def test_a_refused_name_raises(self, run):
        with pytest.raises(ParameterError, match="unknown cell backend"):
            run("python")


class TestFallbackChain:
    def params(self, **kwargs):
        defaults = dict(num_cells=64, key_bits=32, seed=1)
        defaults.update(kwargs)
        return IBLTParameters(**defaults)

    def test_wide_keys_stay_on_numpy(self):
        wide = self.params(key_bits=80)
        table = IBLT(wide, backend="numpy")
        assert table.backend == "numpy"
        table.insert_batch([1 << 70, 5])
        result = table.try_decode()
        assert result.success and result.positive == {1 << 70, 5}
        assert_agrees_with_reference(table)
