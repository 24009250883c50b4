"""The one cell codec: its array and scalar routes give the same integer.

``IBLT.serialize`` / ``deserialize`` pick the route by store: bit planes for
the NumPy store, the pairwise fold for the Python store.  Over a grid of
cell widths and table sizes, with counts wrapped past ``2**count_bits`` in
both directions, both routes must produce the same integer, each must read
back what the other wrote, and an integer wider than the table must be
refused before anything is built.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

from repro.errors import ParameterError
from repro.iblt import IBLT, IBLTParameters, NumpyCellStore
from repro.iblt import codec

HAS_NUMPY = NumpyCellStore.available()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
if HAS_NUMPY:
    import numpy as np

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
        encoded = codec.fold_cells(params, residues, keys, checks)
        assert encoded.bit_length() <= params.size_bits
        assert codec.split_cells(params, encoded) == (residues, keys, checks)

    @needs_numpy
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
        folded = codec.fold_cells(params, residues, keys, checks)
        assert packed == folded
        unpacked_counts, unpacked_keys, unpacked_checks = codec.unpack_row(params, packed)
        assert unpacked_counts.dtype == np.int64 and unpacked_keys.dtype == np.uint64
        assert (unpacked_counts.tolist(), unpacked_keys.tolist(), unpacked_checks.tolist()) == (
            codec.split_cells(params, folded)
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
    for backend in ("numpy", "python"):
        table = IBLT(params, backend=backend)
        table.insert_batch(keys[:4])
        for _ in range((1 << count_bits) + 3 if count_bits == 4 else 3):
            table.delete_batch(keys[4:])
        tables.append(table)
    return params, tables


TABLE_GRID = [case for case in GRID if case[3] > 1]


@needs_numpy
@pytest.mark.parametrize("count_bits,key_bits,checksum_bits,num_cells", TABLE_GRID)
def test_each_store_reads_what_the_other_wrote(count_bits, key_bits, checksum_bits, num_cells):
    params, (on_numpy, on_python) = built_tables(count_bits, key_bits, checksum_bits, num_cells)
    assert (on_numpy.backend, on_python.backend) == ("numpy", "python")
    encoded = on_numpy.serialize()
    assert encoded == on_python.serialize()
    # The scalar route over the NumPy store's own cells gives it too.
    assert encoded == codec.fold_cells(params, *on_numpy._store.snapshot())
    from_python = IBLT.deserialize(params, on_python.serialize(), backend="numpy")
    from_numpy = IBLT.deserialize(params, encoded, backend="python")
    assert from_python.backend == "numpy" and from_numpy.backend == "python"
    assert from_python == on_numpy == from_numpy == on_python
    assert from_python.serialize() == from_numpy.serialize() == encoded
    # An arbitrary integer of the right width, too (any count residue).
    arbitrary = random.Random(encoded).getrandbits(params.size_bits)
    read_on_numpy = IBLT.deserialize(params, arbitrary, backend="numpy")
    read_on_python = IBLT.deserialize(params, arbitrary, backend="python")
    assert read_on_numpy == read_on_python
    assert read_on_numpy.serialize() == read_on_python.serialize() == arbitrary
    assert read_on_numpy.try_decode() == read_on_python.try_decode()


@pytest.mark.parametrize("backend", ["python"] + (["numpy"] if HAS_NUMPY else []))
def test_an_integer_wider_than_the_table_is_refused(backend):
    params = IBLTParameters(num_cells=8, key_bits=20, seed=1)
    for encoded in (1 << params.size_bits, -1, 1 << (10 * params.size_bits)):
        with pytest.raises(ParameterError, match="does not match"):
            IBLT.deserialize(params, encoded, backend=backend)
    widest = (1 << params.size_bits) - 1
    assert IBLT.deserialize(params, widest, backend=backend).serialize() == widest


@needs_numpy
def test_multi_limb_keys_use_the_planes_of_their_limbs():
    params = IBLTParameters(num_cells=12, key_bits=150, seed=4, count_bits=4)
    keys = [(1 << 149) | 5, 7, (1 << 150) - 1, 1 << 64]
    on_numpy = IBLT(params, backend="numpy")
    on_python = IBLT(params, backend="python")
    for table in (on_numpy, on_python):
        table.insert_batch(keys[:2])
        table.delete_batch(keys[2:])
    encoded = on_numpy.serialize()
    assert encoded == on_python.serialize()
    back = IBLT.deserialize(params, encoded, backend="numpy")
    assert back._store.dense_cells()[1].shape == (12, 3)
    assert back == on_python and back.serialize() == encoded
    assert back.try_decode() == on_python.try_decode()
