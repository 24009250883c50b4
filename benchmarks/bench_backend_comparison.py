"""Cell-store backend comparison: pure-Python vs NumPy.

Times the three IBLT primitives every protocol is built from --
encode (batch insert of n keys), subtract, and decode (batch peeling) --
at n in {10^3, 10^4, 10^5} per backend, asserting that both backends
recover identical sets.  The acceptance bar for the vectorized backend is
a >= 5x end-to-end (encode + subtract + decode) speedup over the reference
backend at n = 10^5.

The wide-key row (``compare_wide``) does the same at 588-bit keys, the
width of the explicit child table of the ``sos-cascading`` workload: both
stores hold such keys (the NumPy store as ten ``uint64`` limbs per cell), and
the row asserts byte-identical serializations and identical recovered sets.

The large-scale row (``compare_large``, n = 10^7) runs both tiers in one
run, asserts byte-identical serializations across them, and times the
decode phase both through the legacy per-round driver and through the
in-store vectorized peel that replaced it.  The acceptance bar is >= 2x on
the peel/decode phase for the NumPy store's in-store peel over the reference
tier's peel (the legacy-driver comparison on the same store is reported
alongside, unfloored: the generic driver already runs batched store
primitives, so its gap is small).

Run under pytest-benchmark like the other benchmarks, or standalone::

    PYTHONPATH=src python benchmarks/bench_backend_comparison.py

which also rewrites ``BENCH_backends.json`` at the repository root.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

from repro.bench.cli import DEFAULT_SEED, benchmark_config, benchmark_parser
from repro.bench.reporting import write_benchmark_record
from repro.iblt import IBLT, IBLTParameters, NumpyCellStore
from repro.iblt.backends import CellStore
from repro.iblt.table import DecodeResult

SIZES = (1_000, 10_000, 100_000)
KEY_BITS = 48
WIDE_KEY_BITS = 588
WIDE_N = 2_000
SPEEDUP_FLOOR = 5.0  # acceptance bar at the largest size
LARGE_N = 10_000_000
PEEL_SPEEDUP_FLOOR = 2.0  # the NumPy store's in-store peel vs the reference peel at 1e7
_UNIVERSE = 1 << (KEY_BITS - 1)


def _instance(n: int, seed: int) -> tuple[list[int], list[int]]:
    """Two key lists sharing all but ~n/100 keys (a realistic difference)."""
    rng = random.Random(seed)
    alice = rng.sample(range(_UNIVERSE), n)
    difference = max(2, n // 100)
    bob = alice[: n - difference // 2] + rng.sample(
        range(_UNIVERSE, 2 * _UNIVERSE), difference - difference // 2
    )
    return alice, bob


def _run_backend(backend: str, n: int, seed: int) -> dict:
    """Encode both sides, subtract, decode; return timings and recovered sets."""
    alice, bob = _instance(n, seed)
    params = IBLTParameters.for_difference(
        2 * max(2, n // 100), KEY_BITS, seed=seed
    )
    start = time.perf_counter()
    alice_table = IBLT.from_items(params, alice, backend=backend)
    bob_table = IBLT.from_items(params, bob, backend=backend)
    encoded = time.perf_counter()
    difference = alice_table.subtract(bob_table)
    subtracted = time.perf_counter()
    result = difference.try_decode()
    decoded = time.perf_counter()
    assert result.success, f"{backend} decode failed at n={n}"
    return {
        "backend": alice_table.backend,
        "n": n,
        "encode_s": encoded - start,
        "subtract_s": subtracted - encoded,
        "decode_s": decoded - subtracted,
        "total_s": decoded - start,
        "positive": result.positive,
        "negative": result.negative,
    }


def compare(sizes=SIZES, seed: int = 20180611) -> list[dict]:
    """Run both backends over every size; assert identical recovered sets."""
    rows = []
    for n in sizes:
        python_run = _run_backend("python", n, seed)
        numpy_run = _run_backend("numpy", n, seed)
        assert python_run["positive"] == numpy_run["positive"]
        assert python_run["negative"] == numpy_run["negative"]
        rows.append(
            {
                "n": n,
                "recovered": len(python_run["positive"]) + len(python_run["negative"]),
                "python": {
                    key: round(python_run[key], 6)
                    for key in ("encode_s", "subtract_s", "decode_s", "total_s")
                },
                "numpy": {
                    key: round(numpy_run[key], 6)
                    for key in ("encode_s", "subtract_s", "decode_s", "total_s")
                },
                "speedup": round(python_run["total_s"] / numpy_run["total_s"], 2),
                "numpy_resolved_backend": numpy_run["backend"],
            }
        )
    return rows


def compare_wide(n: int = WIDE_N, seed: int = DEFAULT_SEED) -> dict:
    """The wide-key row: both stores at :data:`WIDE_KEY_BITS`-bit keys.

    Asserts that the ``numpy`` request stays on the NumPy store, that both
    stores serialize Alice's table and the difference to the same bytes, and
    that they recover the same sets.
    """
    rng = random.Random(seed)
    alice = [rng.getrandbits(WIDE_KEY_BITS) for _ in range(n)]
    difference = max(2, n // 100)
    bob = alice[: n - difference // 2] + [
        rng.getrandbits(WIDE_KEY_BITS) for _ in range(difference - difference // 2)
    ]
    params = IBLTParameters.for_difference(2 * difference, WIDE_KEY_BITS, seed=seed)
    runs = {}
    for backend in ("python", "numpy"):
        start = time.perf_counter()
        alice_table = IBLT.from_items(params, alice, backend=backend)
        delta = alice_table.subtract(IBLT.from_items(params, bob, backend=backend))
        result = delta.try_decode()
        elapsed = time.perf_counter() - start
        assert result.success, f"{backend} decode failed at {WIDE_KEY_BITS}-bit keys"
        runs[backend] = (alice_table, delta, result, elapsed)
    (py_table, py_delta, py_result, py_s), (np_table, np_delta, np_result, np_s) = (
        runs["python"], runs["numpy"]
    )
    assert np_table.backend == "numpy"
    assert py_table.serialize() == np_table.serialize()
    assert py_delta.serialize() == np_delta.serialize()
    assert (py_result.positive, py_result.negative) == (np_result.positive, np_result.negative)
    return {
        "n": n,
        "key_bits": WIDE_KEY_BITS,
        "recovered": len(np_result.positive) + len(np_result.negative),
        "python": {"total_s": round(py_s, 6)},
        "numpy": {"total_s": round(np_s, 6)},
        "numpy_resolved_backend": np_table.backend,
        "identical_serializations": True,
        "speedup": round(py_s / np_s, 2),
    }


def _legacy_decode(table: IBLT) -> DecodeResult:
    """Decode through the pre-in-store driver.

    Runs the generic per-round peel over the store's primitive API
    (``pure_cells`` + per-round ``apply_batch``), the loop shape
    ``IBLT.try_decode`` used before whole-round peeling moved into the
    store -- the baseline the in-store peel is measured against.
    """
    work = table.copy()
    positive, negative = CellStore.peel_rounds(
        work._store, work._checksum, work._family
    )
    return DecodeResult(work._store.is_empty(), set(positive), set(negative))


def compare_large(n: int = LARGE_N, seed: int = DEFAULT_SEED) -> dict:
    """The n=1e7 row: both tiers in one run, plus the peel phase.

    Encodes, subtracts, and decodes under the python and numpy tiers (the
    store the ``numpy`` request resolved to is recorded), asserts
    byte-identical serializations and identical recovered sets across them,
    then times the NumPy store's decode phase twice: through the legacy
    per-round driver and through the in-store vectorized peel that replaced
    it.

    ``peel_speedup`` (floored at :data:`PEEL_SPEEDUP_FLOOR`) is the
    reference tier's peel over the NumPy store's in-store peel -- the
    peel/decode-phase gain of the vectorized tier.
    ``legacy_driver_speedup`` isolates the in-store refactor on the NumPy
    store itself and is reported unfloored.
    """
    alice, bob = _instance(n, seed)
    params = IBLTParameters.for_difference(
        2 * max(2, n // 100), KEY_BITS, seed=seed
    )
    tiers: dict[str, dict] = {}
    differences: dict[str, IBLT] = {}
    reference = None
    for backend in ("python", "numpy"):
        start = time.perf_counter()
        alice_table = IBLT.from_items(params, alice, backend=backend)
        bob_table = IBLT.from_items(params, bob, backend=backend)
        encoded = time.perf_counter()
        difference = alice_table.subtract(bob_table)
        subtracted = time.perf_counter()
        result = difference.try_decode()
        decoded = time.perf_counter()
        assert result.success, f"{backend} decode failed at n={n}"
        differences[backend] = difference
        tiers[backend] = {
            "encode_s": round(encoded - start, 6),
            "subtract_s": round(subtracted - encoded, 6),
            "decode_s": round(decoded - subtracted, 6),
            "total_s": round(decoded - start, 6),
        }
        if reference is None:
            reference = result
        else:
            assert result.positive == reference.positive
            assert result.negative == reference.negative
    assert differences["python"].serialize() == differences["numpy"].serialize()

    start = time.perf_counter()
    legacy = _legacy_decode(differences["numpy"])
    legacy_s = time.perf_counter() - start
    start = time.perf_counter()
    instore = differences["numpy"].try_decode()
    instore_s = time.perf_counter() - start
    assert legacy == instore  # identical round structure, identical sets

    return {
        "n": n,
        "recovered": len(reference.positive) + len(reference.negative),
        "python": tiers["python"],
        "numpy": tiers["numpy"],
        "numpy_resolved_backend": differences["numpy"].backend,
        "identical_serializations": True,
        "legacy_decode_s": round(legacy_s, 6),
        "instore_decode_s": round(instore_s, 6),
        "legacy_driver_speedup": round(legacy_s / instore_s, 2),
        "peel_speedup": round(tiers["python"]["decode_s"] / instore_s, 2),
        "peel_speedup_floor": PEEL_SPEEDUP_FLOOR,
        "speedup": round(
            tiers["python"]["total_s"] / tiers["numpy"]["total_s"], 2
        ),
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

import pytest

needs_numpy = pytest.mark.skipif(
    not NumpyCellStore.available(), reason="NumPy not installed"
)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("n", SIZES)
def test_backend_encode_subtract_decode(benchmark, backend, n):
    from conftest import run_once

    if backend == "numpy" and not NumpyCellStore.available():
        pytest.skip("NumPy not installed")
    run = run_once(benchmark, _run_backend, backend, n, seed=n)
    assert run["positive"] and run["n"] == n


@needs_numpy
def test_numpy_backend_speedup_floor(benchmark):
    """The tentpole acceptance check: >= 5x end-to-end at the largest size."""
    from conftest import run_once

    rows = run_once(benchmark, compare, sizes=(SIZES[-1],))
    assert rows[0]["numpy_resolved_backend"] == "numpy"
    assert rows[0]["speedup"] >= SPEEDUP_FLOOR, rows


@needs_numpy
def test_wide_keys_identical_on_both_stores(benchmark):
    """The 588-bit row: the NumPy store holds the keys as limbs and writes
    the same bytes as the reference store."""
    from conftest import run_once

    row = run_once(benchmark, compare_wide, n=400)
    assert row["numpy_resolved_backend"] == "numpy"
    assert row["identical_serializations"]
    assert row["recovered"] == 4


@needs_numpy
def test_all_tiers_identical_and_instore_peel_matches_legacy(benchmark):
    """CI smoke for the large-scale row at a small n: both tiers in one
    run, byte-identical serializations, legacy driver == in-store peel."""
    from conftest import run_once

    row = run_once(benchmark, compare_large, n=50_000)
    assert row["identical_serializations"]
    assert row["recovered"] == 500


def main() -> None:
    args = benchmark_parser(
        "IBLT cell-store backend comparison",
        Path(__file__).resolve().parent.parent / "BENCH_backends.json",
    ).parse_args()
    if not NumpyCellStore.available():
        sys.exit("NumPy is required for the backend comparison")
    rows = compare(seed=args.seed)
    for row in rows:
        print(
            f"n={row['n']:>7}  python={row['python']['total_s']:.3f}s  "
            f"numpy={row['numpy']['total_s']:.3f}s  speedup={row['speedup']:.1f}x  "
            f"recovered={row['recovered']}"
        )
    largest = rows[-1]
    if largest["speedup"] < SPEEDUP_FLOOR:
        sys.exit(
            f"speedup {largest['speedup']}x below the {SPEEDUP_FLOOR}x floor"
        )
    large = compare_large(seed=args.seed)
    print(
        f"n={large['n']:>8}  python={large['python']['total_s']:.1f}s  "
        f"numpy={large['numpy']['total_s']:.1f}s  "
        f"peel ref={large['python']['decode_s']:.3f}s "
        f"in-store={large['instore_decode_s']:.3f}s "
        f"({large['peel_speedup']:.1f}x; legacy driver "
        f"{large['legacy_driver_speedup']:.1f}x)"
    )
    if large["peel_speedup"] < PEEL_SPEEDUP_FLOOR:
        sys.exit(
            f"in-store peel speedup {large['peel_speedup']}x over the "
            f"reference peel is below the {PEEL_SPEEDUP_FLOOR}x floor "
            f"at n={large['n']}"
        )
    wide = compare_wide(seed=args.seed)
    print(
        f"n={wide['n']:>7}  {WIDE_KEY_BITS}-bit keys  "
        f"python={wide['python']['total_s']:.3f}s  numpy={wide['numpy']['total_s']:.3f}s  "
        f"speedup={wide['speedup']:.1f}x  identical bytes"
    )
    rows.extend([large, wide])
    config = benchmark_config(
        args.seed, sizes=list(SIZES), large_n=LARGE_N, wide_n=WIDE_N
    )
    if args.profile:
        config["profile"] = {
            f"{tier}_{phase}_s": large[tier][f"{phase}_s"]
            for tier in ("python", "numpy")
            for phase in ("encode", "subtract", "decode")
        } | {
            "peel_legacy_s": large["legacy_decode_s"],
            "peel_instore_s": large["instore_decode_s"],
        }
    output = args.output
    write_benchmark_record(
        output,
        benchmark="bench_backend_comparison",
        description=(
            "IBLT encode+subtract+decode wall-clock per cell-store "
            "backend; identical recovered sets asserted per size; the "
            "n=1e7 row runs both tiers plus the legacy-vs-in-store "
            "peel comparison"
        ),
        config=config,
        key_bits=KEY_BITS,
        speedup_floor=SPEEDUP_FLOOR,
        peel_speedup_floor=PEEL_SPEEDUP_FLOOR,
        results=rows,
    )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
