"""The one ingestion of key batches, :func:`repro.hashing.checked_keys`,
pinned as a refusal grid across every entry point that takes keys from a
caller: each accepts and refuses exactly the same values, alone and in a
batch large enough for the array route."""

import numpy as np
import pytest

import reference_store
from repro.core.setsofsets import SetOfSets
from repro.errors import CapacityError, ParameterError
from repro.estimator import L0Estimator
from repro.hashing import Checksum, checked_keys
from repro.hashing.mix import is_key_array
from repro.iblt import IBLT, IBLTParameters
from repro.protocols.parties.setrecon import SetReconContext, SetSource


class Sub(int):
    pass


WIDE = object()  # accepted, except by a table whose keys are 64 bits wide

VALUES = {
    "float": (2.5, ParameterError),
    "float 2.0": (2.0, ParameterError),
    "bool": (True, None),
    "int subclass": (Sub(5), None),
    "negative": (-1, ParameterError),
    "2**63": (1 << 63, None),
    "2**64 - 1": ((1 << 64) - 1, None),
    "2**64": (1 << 64, WIDE),
    "2**70": (1 << 70, WIDE),
    "str": ("7", ParameterError),
    "None": (None, ParameterError),
    "numpy int64": (np.int64(3), ParameterError),
    "numpy uint64": (np.uint64(3), ParameterError),
}


def _table(store):
    def insert(keys):
        reference_store.new_table(IBLTParameters(40, 64, 1, 3), store).insert_batch(keys)

    return insert


ENTRY_POINTS = {
    "checked_keys": checked_keys,
    "Checksum.of_set": Checksum(1, 64).of_set,
    "SetSource": lambda keys: SetSource(keys, SetReconContext(1 << 80, 3)),
    "L0Estimator.update_all": lambda keys: L0Estimator(1).update_all(keys, 1),
    "IBLT reference store": _table("reference"),
    "IBLT numpy store": _table("numpy"),
    "SetOfSets": lambda keys: SetOfSets([keys, [1]]),
}


@pytest.mark.parametrize("padding", [0, 100], ids=["alone", "batch"])
@pytest.mark.parametrize("value", VALUES, ids=list(VALUES))
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=list(ENTRY_POINTS))
def test_every_entry_point_accepts_and_refuses_alike(entry, value, padding):
    key, refusal = VALUES[value]
    if refusal is WIDE:
        refusal = CapacityError if entry.startswith("IBLT") else None
    batch = [key] + list(range(10, 10 + padding))
    if refusal is None:
        ENTRY_POINTS[entry](batch)
    else:
        with pytest.raises(refusal):
            ENTRY_POINTS[entry](batch)


def test_fromiter_refuses_a_negative_key():
    # checked_keys reads the sign of an array-bound batch off this refusal
    # (NumPy 1.x wrapped -1 to 2**64 - 1 instead), hence numpy>=2.0.
    with pytest.raises(OverflowError):
        np.fromiter([-1], dtype=np.uint64)
    with pytest.raises(OverflowError):
        np.fromiter([5, -(1 << 70)], dtype=np.uint64, count=2)


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "with a key past 64 bits"])
def test_a_negative_key_is_refused_on_either_route(wide):
    keys = [-3, *range(100)] + ([1 << 70] if wide else [])
    with pytest.raises(ParameterError, match="must be non-negative"):
        checked_keys(keys)


@pytest.mark.parametrize("keys", [[3, 1 << 63], list(range(100))])
def test_narrow_keys_come_back_as_one_array_with_numpy(keys):
    checked = checked_keys(iter(keys))
    assert is_key_array(checked)
    assert checked.tolist() == keys
    assert checked_keys(keys, array_above=len(keys)) == keys
    assert checked_keys(keys, array_above=None) == keys


def test_a_wide_key_or_no_key_keeps_the_list_and_an_array_passes_as_it_is():
    assert checked_keys([1, 1 << 64]) == [1, 1 << 64]
    assert checked_keys(()) == []
    array = np.arange(5, dtype=np.uint64)
    assert checked_keys(array) is array
