"""The one cell codec against the reference store's scalar codec.

``IBLT.serialize`` / ``deserialize`` write and read the NumPy store's arrays
as bit planes; the reference store (``tests/reference_store.py``) joins and
splits Python ints cell by cell.  Over a grid of cell widths and table
sizes, with counts wrapped past ``2**count_bits`` in both directions, both
must produce the same integer, each must read back what the other wrote,
and an integer wider than the table must be refused before anything is
built.
"""

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

import reference_store
from reference_store import fold_cells, split_cells
from repro.errors import ParameterError
from repro.iblt import IBLT, IBLTParameters
from repro.iblt import codec

GRID = list(
    itertools.product((4, 16), (17, 20, 30, 63, 64), (16, 32, 64), (1, 7, 8, 68, 128))
)


def widths(count_bits, key_bits, checksum_bits, num_cells):
    """What the codec reads off the parameters (``IBLTParameters`` itself
    needs at least two cells)."""
    cell_bits = count_bits + key_bits + checksum_bits
    return SimpleNamespace(
        count_bits=count_bits,
        key_bits=key_bits,
        checksum_bits=checksum_bits,
        num_cells=num_cells,
        cell_bits=cell_bits,
        size_bits=num_cells * cell_bits,
    )


def random_cells(rng, params):
    """Exact counts up to three wraps either way, and full-width XORs."""
    limit = 3 << params.count_bits
    counts = [rng.randint(-limit, limit) for _ in range(params.num_cells)]
    keys = [rng.getrandbits(params.key_bits) for _ in range(params.num_cells)]
    checks = [rng.getrandbits(params.checksum_bits) for _ in range(params.num_cells)]
    return counts, keys, checks


def residue(count, count_bits):
    half = 1 << (count_bits - 1)
    return (count + half) % (2 * half) - half


@pytest.mark.parametrize("count_bits,key_bits,checksum_bits,num_cells", GRID)
class TestRoutesAgree:
    def test_scalar_split_inverts_the_fold(self, count_bits, key_bits, checksum_bits, num_cells):
        params = widths(count_bits, key_bits, checksum_bits, num_cells)
        rng = random.Random(f"{count_bits}/{key_bits}/{checksum_bits}/{num_cells}")
        counts, keys, checks = random_cells(rng, params)
        residues = [residue(count, count_bits) for count in counts]
        encoded = fold_cells(params, residues, keys, checks)
        assert encoded.bit_length() <= params.size_bits
        assert split_cells(params, encoded) == (residues, keys, checks)

    def test_array_route_equals_the_scalar_route(
        self, count_bits, key_bits, checksum_bits, num_cells
    ):
        params = widths(count_bits, key_bits, checksum_bits, num_cells)
        rng = random.Random(f"array {count_bits}/{key_bits}/{checksum_bits}/{num_cells}")
        counts, keys, checks = random_cells(rng, params)
        residues = [residue(count, count_bits) for count in counts]
        # Exact counts on the array route, residues on the scalar one.
        packed = codec.pack_rows(
            params,
            np.array([counts], dtype=np.int64),
            np.array([keys], dtype=np.uint64),
            np.array([checks], dtype=np.uint64),
        )[0]
        folded = fold_cells(params, residues, keys, checks)
        assert packed == folded
        unpacked_counts, unpacked_keys, unpacked_checks = codec.unpack_row(params, packed)
        assert unpacked_counts.dtype == np.int64 and unpacked_keys.dtype == np.uint64
        assert (unpacked_counts.tolist(), unpacked_keys.tolist(), unpacked_checks.tolist()) == (
            split_cells(params, folded)
        )


def built_tables(count_bits, key_bits, checksum_bits, num_cells):
    """The same table on each store: some keys inserted once, others deleted
    past a full wrap of the count, so cells hold wrapped negative counts."""
    params = IBLTParameters(
        num_cells=num_cells,
        key_bits=key_bits,
        seed=num_cells + key_bits,
        num_hashes=min(4, num_cells),
        checksum_bits=checksum_bits,
        count_bits=count_bits,
    )
    rng = random.Random(num_cells * key_bits)
    keys = [rng.getrandbits(key_bits) for _ in range(6)] + [(1 << key_bits) - 1]
    tables = []
    for store in ("numpy", "reference"):
        table = reference_store.new_table(params, store)
        table.insert_batch(keys[:4])
        for _ in range((1 << count_bits) + 3 if count_bits == 4 else 3):
            table.delete_batch(keys[4:])
        tables.append(table)
    return params, tables


TABLE_GRID = [case for case in GRID if case[3] > 1]


@pytest.mark.parametrize("count_bits,key_bits,checksum_bits,num_cells", TABLE_GRID)
def test_each_store_reads_what_the_other_wrote(count_bits, key_bits, checksum_bits, num_cells):
    params, (on_numpy, on_reference) = built_tables(
        count_bits, key_bits, checksum_bits, num_cells
    )
    assert (on_numpy.backend, on_reference.backend) == ("numpy", "reference")
    encoded = on_numpy.serialize()
    assert encoded == reference_store.serialize(on_reference)
    from_reference = IBLT.deserialize(params, reference_store.serialize(on_reference))
    from_numpy = reference_store.deserialize(params, encoded)
    assert from_numpy.backend == "reference"
    assert from_reference == on_numpy == from_numpy == on_reference
    assert from_reference.serialize() == reference_store.serialize(from_numpy) == encoded
    # An arbitrary integer of the right width, too (any count residue).
    arbitrary = random.Random(encoded).getrandbits(params.size_bits)
    read_on_numpy = IBLT.deserialize(params, arbitrary)
    read_on_reference = reference_store.deserialize(params, arbitrary)
    assert read_on_numpy == read_on_reference
    assert read_on_numpy.serialize() == reference_store.serialize(read_on_reference) == arbitrary
    assert read_on_numpy.try_decode() == read_on_reference.try_decode()


@pytest.mark.parametrize("backend", ["reference", "numpy"])
def test_an_integer_wider_than_the_table_is_refused(backend):
    params = IBLTParameters(num_cells=8, key_bits=20, seed=1)
    read = IBLT.deserialize if backend == "numpy" else reference_store.deserialize
    for encoded in (1 << params.size_bits, -1, 1 << (10 * params.size_bits)):
        with pytest.raises(ParameterError, match="does not match"):
            read(params, encoded)
    widest = (1 << params.size_bits) - 1
    assert reference_store.serialize(read(params, widest)) == widest
    assert IBLT.deserialize(params, widest).serialize() == widest


def test_multi_limb_keys_use_the_planes_of_their_limbs():
    params = IBLTParameters(num_cells=12, key_bits=150, seed=4, count_bits=4)
    keys = [(1 << 149) | 5, 7, (1 << 150) - 1, 1 << 64]
    on_numpy = IBLT(params, backend="numpy")
    on_reference = reference_store.new_table(params)
    for table in (on_numpy, on_reference):
        table.insert_batch(keys[:2])
        table.delete_batch(keys[2:])
    encoded = on_numpy.serialize()
    assert encoded == reference_store.serialize(on_reference)
    back = IBLT.deserialize(params, encoded, backend="numpy")
    assert back._store.dense_cells()[1].shape == (12, 3)
    assert back == on_reference and back.serialize() == encoded
    assert back.try_decode() == on_reference.try_decode()
