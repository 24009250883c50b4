"""Field-kernel comparison: pure-Python vs vectorized NumPy GF(p) kernels.

Times the characteristic-polynomial protocol's two sides (Theorem 2.3) --
``cpi_encode`` (batch evaluation of chi_A at d+1 points) and ``cpi_decode``
(batch evaluation, Vandermonde assembly, Gaussian elimination, root
finding) -- under each of the two field kernels, asserting bit-identical
``CPIMessage.evaluations`` and recovered sets.  The acceptance bar for the
vectorized kernel is a >= 8x ``cpi_decode`` speedup over the reference
kernel at ``n = 600, d = 48``.

The large-scale row (``compare_gcd_phase``, d = 10^4) times the phase that
dominates CPI decoding at large difference bounds: the Cantor-Zassenhaus
root-finding gcd chain on degree-d polynomials.  It compares the scalar
reference chain against the vectorized Euclid chain, asserting exact
coefficient identity; acceptance bar >= 2x on the gcd phase.

Run under pytest like the other benchmarks (the small-``d`` cases double as
the CI smoke test), or standalone::

    PYTHONPATH=src python benchmarks/bench_field_kernels.py

which also rewrites ``BENCH_field_kernels.json`` at the repository root.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

from repro.bench.cli import DEFAULT_SEED, benchmark_config, benchmark_parser
from repro.bench.reporting import write_benchmark_record
from repro.core.setrecon.cpi import cpi_decode, cpi_encode
from repro.field import NumpyFieldKernel

UNIVERSE = 1 << 20
SET_SIZE = 600
DIFFERENCES = (4, 16, 48)
SPEEDUP_FLOOR = 8.0  # acceptance bar for cpi_decode at the largest d
ROUNDS = 7  # interleaved measurement rounds per (kernel, d)
GCD_DEGREE = 10_000
GCD_SPEEDUP_FLOOR = 2.0  # vectorized gcd chain vs scalar reference at d=1e4
PRIME = 1048583  # the CPI prime just above UNIVERSE


def _instance(size: int, difference: int, seed: int) -> tuple[set[int], set[int]]:
    """Two sets differing in exactly ``difference`` elements."""
    rng = random.Random(seed)
    alice = set(rng.sample(range(UNIVERSE), size))
    bob = set(alice)
    for element in rng.sample(sorted(alice), difference // 2):
        bob.discard(element)
    while len(alice ^ bob) < difference:
        bob.add(rng.randrange(UNIVERSE))
    return alice, bob


def _run_kernel(
    kernel: str, difference: int, seed: int = DEFAULT_SEED, rounds: int = ROUNDS
) -> dict:
    """Encode + decode under one kernel; timings are best-of-``rounds``."""
    alice, bob = _instance(SET_SIZE, difference, seed=difference * 1000 + seed)

    encode_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        message = cpi_encode(alice, difference, UNIVERSE, field_kernel=kernel)
        encode_times.append(time.perf_counter() - start)

    decode_times = []
    for _ in range(rounds):
        start = time.perf_counter()
        success, recovered = cpi_decode(
            message, bob, UNIVERSE, seed, field_kernel=kernel
        )
        decode_times.append(time.perf_counter() - start)
    assert success, f"{kernel} decode failed at d={difference}"
    assert recovered == alice, f"{kernel} recovered the wrong set at d={difference}"
    return {
        "kernel": kernel,
        "d": difference,
        "message": message,
        "recovered": recovered,
        "encode_s": min(encode_times),
        "decode_s": min(decode_times),
    }


def compare(differences=DIFFERENCES, seed: int = DEFAULT_SEED) -> list[dict]:
    """Run both kernels per difference; assert bit-identical protocol data.

    Measurement rounds for the two kernels are interleaved so load spikes
    on shared machines hit both sides, and best-of-round times are compared
    (the standard microbenchmark guard against one-sided noise).
    """
    rows = []
    for difference in differences:
        python_run = _run_kernel("python", difference, seed=seed, rounds=2)  # warmup
        numpy_run = _run_kernel("numpy", difference, seed=seed, rounds=2)
        python_best: dict = python_run
        numpy_best: dict = numpy_run
        for _ in range(ROUNDS):
            python_run = _run_kernel("python", difference, seed=seed, rounds=1)
            numpy_run = _run_kernel("numpy", difference, seed=seed, rounds=3)
            for key in ("encode_s", "decode_s"):
                python_best[key] = min(python_best[key], python_run[key])
                numpy_best[key] = min(numpy_best[key], numpy_run[key])
        python_run, numpy_run = python_best, numpy_best
        assert python_run["message"] == numpy_run["message"], "evaluations differ"
        assert python_run["recovered"] == numpy_run["recovered"], "recovery differs"
        rows.append(
            {
                "n": SET_SIZE,
                "d": difference,
                "python": {
                    "encode_s": round(python_run["encode_s"], 6),
                    "decode_s": round(python_run["decode_s"], 6),
                },
                "numpy": {
                    "encode_s": round(numpy_run["encode_s"], 6),
                    "decode_s": round(numpy_run["decode_s"], 6),
                },
                "speedup": round(python_run["decode_s"] / numpy_run["decode_s"], 2),
                "encode_speedup": round(
                    python_run["encode_s"] / numpy_run["encode_s"], 2
                ),
                "identical_evaluations": True,
                "identical_recovered_sets": True,
            }
        )
    return rows


def compare_gcd_phase(degree: int = GCD_DEGREE, seed: int = DEFAULT_SEED) -> dict:
    """The d=1e4 row: the root-finding gcd chain at characteristic scale.

    Cantor-Zassenhaus splitting -- the phase that dominates ``cpi_decode``
    at large difference bounds -- is a chain of large-degree polynomial
    gcds.  This row builds two degree-``degree`` products of linears
    sharing ``degree // 2`` roots (the shape a split sees) and times one
    gcd under both tiers: the scalar reference chain and the vectorized
    NumPy Euclid chain.  They must produce exactly the same coefficients.
    """
    from repro.field import Polynomial, prime_field
    from repro.field.kernels import _poly_gcd_scalar

    rng = random.Random(seed)
    field = prime_field(PRIME)
    pool = rng.sample(range(1, PRIME), degree + degree // 2)
    a = Polynomial.from_roots(field, pool[:degree])
    b = Polynomial.from_roots(field, pool[degree // 2 :])
    a_coeffs, b_coeffs = list(a.coeffs), list(b.coeffs)

    start = time.perf_counter()
    scalar_gcd = _poly_gcd_scalar(PRIME, a_coeffs, b_coeffs)
    scalar_s = time.perf_counter() - start

    numpy_kernel = NumpyFieldKernel()
    numpy_times = []
    for _ in range(3):
        start = time.perf_counter()
        numpy_gcd = numpy_kernel.poly_gcd(PRIME, a_coeffs, b_coeffs)
        numpy_times.append(time.perf_counter() - start)

    assert scalar_gcd == numpy_gcd
    assert len(scalar_gcd) - 1 == degree // 2  # exactly the shared roots
    return {
        "n": SET_SIZE,
        "d": degree,
        "phase": "root-finding gcd chain",
        "shared_roots": degree // 2,
        "python": {"gcd_s": round(scalar_s, 6)},
        "numpy": {"gcd_s": round(min(numpy_times), 6)},
        "identical_coefficients": True,
        "speedup": round(scalar_s / min(numpy_times), 2),
        "gcd_speedup": round(scalar_s / min(numpy_times), 2),
        "gcd_speedup_floor": GCD_SPEEDUP_FLOOR,
    }


# ---------------------------------------------------------------------------
# pytest entry points (the small-d cases are the CI smoke test)
# ---------------------------------------------------------------------------

import pytest


@pytest.mark.parametrize("kernel", ["python", "numpy"])
@pytest.mark.parametrize("difference", [4, 16])
def test_cpi_smoke_small_d(benchmark, kernel, difference):
    """CPI round-trip at small d under each kernel (CI smoke)."""
    from conftest import run_once

    run = run_once(benchmark, _run_kernel, kernel, difference)
    assert run["recovered"] is not None


def test_kernels_bit_identical_across_d(benchmark):
    from conftest import run_once

    rows = run_once(benchmark, compare, differences=(4, 16))
    assert all(row["identical_evaluations"] for row in rows)
    assert all(row["identical_recovered_sets"] for row in rows)


def test_numpy_kernel_speedup_floor(benchmark):
    """The tentpole acceptance check: >= 8x cpi_decode at n=600, d=48."""
    from conftest import run_once

    rows = run_once(benchmark, compare, differences=(DIFFERENCES[-1],))
    assert rows[0]["speedup"] >= SPEEDUP_FLOOR, rows


def test_gcd_phase_tiers_identical(benchmark):
    """CI smoke for the large-degree gcd row at a small degree: both tiers
    produce exactly the same coefficients."""
    from conftest import run_once

    row = run_once(benchmark, compare_gcd_phase, degree=600)
    assert row["identical_coefficients"]
    assert row["shared_roots"] == 300


def main() -> None:
    args = benchmark_parser(
        "CPI field-kernel comparison",
        Path(__file__).resolve().parent.parent / "BENCH_field_kernels.json",
    ).parse_args()
    rows = compare(seed=args.seed)
    for row in rows:
        print(
            f"n={row['n']}  d={row['d']:>3}  "
            f"python decode={row['python']['decode_s']*1000:8.2f} ms  "
            f"numpy decode={row['numpy']['decode_s']*1000:7.2f} ms  "
            f"speedup={row['speedup']:.1f}x  (encode {row['encode_speedup']:.1f}x)"
        )
    largest = rows[-1]
    if largest["speedup"] < SPEEDUP_FLOOR:
        sys.exit(
            f"decode speedup {largest['speedup']}x below the {SPEEDUP_FLOOR}x floor"
        )
    gcd_row = compare_gcd_phase(seed=args.seed)
    print(
        f"n={gcd_row['n']}  d={gcd_row['d']:>5}  gcd phase  "
        f"python={gcd_row['python']['gcd_s']:.2f}s  "
        f"numpy={gcd_row['numpy']['gcd_s']:.2f}s  "
        f"speedup={gcd_row['speedup']:.1f}x"
    )
    if gcd_row["speedup"] < GCD_SPEEDUP_FLOOR:
        sys.exit(
            f"gcd-phase speedup {gcd_row['speedup']}x below the "
            f"{GCD_SPEEDUP_FLOOR}x floor at d={gcd_row['d']}"
        )
    rows.append(gcd_row)
    config = benchmark_config(
        args.seed, differences=list(DIFFERENCES), gcd_degree=GCD_DEGREE
    )
    if args.profile:
        config["profile"] = {
            "python_encode_s": rows[-2]["python"]["encode_s"],
            "python_field_s": rows[-2]["python"]["decode_s"],
            "numpy_encode_s": rows[-2]["numpy"]["encode_s"],
            "numpy_field_s": rows[-2]["numpy"]["decode_s"],
            "gcd_python_s": gcd_row["python"]["gcd_s"],
            "gcd_numpy_s": gcd_row["numpy"]["gcd_s"],
        }
    output = args.output
    write_benchmark_record(
        output,
        benchmark="bench_field_kernels",
        description=(
            "CPI encode/decode wall-clock per GF(p) field kernel; "
            "bit-identical evaluations and recovered sets asserted per d; "
            "the d=1e4 row times the root-finding gcd chain under both "
            "tiers"
        ),
        config=config,
        universe=UNIVERSE,
        set_size=SET_SIZE,
        speedup_floor=SPEEDUP_FLOOR,
        gcd_speedup_floor=GCD_SPEEDUP_FLOOR,
        results=rows,
    )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
