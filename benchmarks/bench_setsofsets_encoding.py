"""Sets-of-sets child-encoding comparison: per-child loop vs batch pipeline.

The structured set-of-sets protocols (Section 3) encode every child set of a
parent into a *(child IBLT, hash)* key.  Built one child at a time through
``ChildEncodingScheme.encode``, the ``O(n)`` encoding term dominates every
structured protocol; the batched pipeline
(:class:`repro.iblt.multi.IBLTArray` behind
``ChildEncodingScheme.encode_all``) flattens the parent to
``(child_index, element)`` pairs, hashes the whole flat array once and
scatters it into one ``(s, num_cells)`` cell tensor.

This benchmark times both paths per cell-store backend, asserting
bit-identical encodings throughout, and runs one full
``protocol="iblt_of_iblts"`` exchange per backend asserting identical
transcripts and recovered sets.  The acceptance bar is a >= 4x ``encode_all``
speedup over the per-child loop at ``s = 2000`` small children on the numpy
backend.

Run under pytest like the other benchmarks (the small-``s`` cases double as
the CI smoke test), or standalone::

    PYTHONPATH=src python benchmarks/bench_setsofsets_encoding.py

which also rewrites ``BENCH_setsofsets.json`` at the repository root.
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
from repro.core.setsofsets.encoding import ChildEncodingScheme
from repro import reconcile
from repro.core.setsofsets.types import SetOfSets
from repro.iblt import IBLTParameters, NumpyCellStore

UNIVERSE = 1 << 20
CHILD_SIZE = 8
CHILD_DIFFERENCE_BOUND = 4  # sizes the per-child sketches (small children)
CHILD_HASH_BITS = 48
S_VALUES = (500, 2000)
HEADLINE_S = 2000
SPEEDUP_FLOOR = 4.0  # acceptance bar for encode_all at s = HEADLINE_S, numpy
ROUNDS = 5  # interleaved measurement rounds per (backend, s)


def _scheme(seed: int = DEFAULT_SEED) -> ChildEncodingScheme:
    """The child encoding scheme the flat IBLT-of-IBLTs protocol uses."""
    params = IBLTParameters.for_difference(
        CHILD_DIFFERENCE_BOUND,
        UNIVERSE.bit_length(),
        seed,
        num_hashes=3,
        checksum_bits=24,
        count_bits=16,
    )
    return ChildEncodingScheme(params, CHILD_HASH_BITS, seed + 1)


def _children(num_children: int, seed: int = 7) -> list[frozenset[int]]:
    rng = random.Random(seed)
    return [
        frozenset(rng.sample(range(UNIVERSE), CHILD_SIZE))
        for _ in range(num_children)
    ]


def _time_paths(scheme, children, backend: str) -> tuple[float, float, list[int]]:
    """One timed run of (per-child loop, batch) on one backend."""
    start = time.perf_counter()
    loop_keys = [scheme.encode(child, backend=backend) for child in children]
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    batch_keys = scheme.encode_all(children, backend=backend)
    batch_s = time.perf_counter() - start
    assert batch_keys == loop_keys, f"{backend}: batch encodings differ from loop"
    return loop_s, batch_s, batch_keys


def compare(
    s_values=S_VALUES, rounds: int = ROUNDS, seed: int = DEFAULT_SEED
) -> list[dict]:
    """Time both paths per backend and s; assert bit-identical encodings.

    Measurement rounds for the two backends are interleaved so load spikes
    on shared machines hit both sides, and best-of-round times are compared
    (the standard microbenchmark guard against one-sided noise).
    """
    backends = ["python"] + (["numpy"] if NumpyCellStore.available() else [])
    scheme = _scheme(seed)
    rows = []
    for num_children in s_values:
        children = _children(num_children, seed=seed + 7)
        best = {backend: [float("inf"), float("inf")] for backend in backends}
        keys = {}
        for _ in range(rounds):
            for backend in backends:
                loop_s, batch_s, batch_keys = _time_paths(scheme, children, backend)
                best[backend][0] = min(best[backend][0], loop_s)
                best[backend][1] = min(best[backend][1], batch_s)
                keys[backend] = batch_keys
        assert len(set(map(tuple, keys.values()))) == 1, "encodings differ by backend"
        row: dict = {"s": num_children, "child_size": CHILD_SIZE}
        for backend in backends:
            loop_s, batch_s = best[backend]
            row[backend] = {
                "encode_loop_s": round(loop_s, 6),
                "encode_all_s": round(batch_s, 6),
            }
            if backend == "numpy":
                row["speedup"] = round(loop_s / batch_s, 2)
        row["identical_encodings"] = True
        rows.append(row)
    return rows


def protocol_cross_backend(num_children: int = 64, seed: int = 11) -> dict:
    """One flat IBLT-of-IBLTs exchange per backend: identical transcripts."""
    rng = random.Random(seed)
    children = _children(num_children, seed=seed)
    bob_children = [set(child) for child in children]
    for index in rng.sample(range(num_children), 3):
        bob_children[index].add(rng.randrange(UNIVERSE))
    alice = SetOfSets(children)
    bob = SetOfSets(bob_children)
    backends = ["python"] + (["numpy"] if NumpyCellStore.available() else [])
    results = {}
    for backend in backends:
        result = reconcile(
            alice, bob, protocol="iblt_of_iblts", difference_bound=8,
            universe_size=UNIVERSE, seed=seed, backend=backend,
        )
        assert result.success, f"{backend}: protocol failed"
        assert result.recovered == alice, f"{backend}: wrong recovery"
        results[backend] = result
    fingerprints = {
        backend: [
            (m.sender, m.label, m.size_bits) for m in result.transcript.messages
        ]
        for backend, result in results.items()
    }
    assert len(set(map(tuple, fingerprints.values()))) == 1, "transcripts differ"
    return {
        "s": num_children,
        "backends": backends,
        "identical_transcripts": True,
        "identical_recovered_sets": True,
    }


# ---------------------------------------------------------------------------
# pytest entry points (the small-s cases are the CI smoke test)
# ---------------------------------------------------------------------------

import pytest


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_encode_smoke_small_s(benchmark, backend):
    """Loop-vs-batch encoding at small s under each backend (CI smoke)."""
    from conftest import run_once

    if backend == "numpy" and not NumpyCellStore.available():
        pytest.skip("NumPy not installed")
    scheme = _scheme()
    children = _children(200)
    loop_s, batch_s, batch_keys = run_once(
        benchmark, _time_paths, scheme, children, backend
    )
    assert len(batch_keys) == 200


def test_identical_encodings_across_backends(benchmark):
    from conftest import run_once

    rows = run_once(benchmark, compare, s_values=(200,), rounds=1)
    assert all(row["identical_encodings"] for row in rows)


def test_identical_protocol_transcripts(benchmark):
    from conftest import run_once

    row = run_once(benchmark, protocol_cross_backend)
    assert row["identical_transcripts"] and row["identical_recovered_sets"]


@pytest.mark.skipif(not NumpyCellStore.available(), reason="NumPy not installed")
def test_numpy_encode_all_speedup_floor(benchmark):
    """The tentpole acceptance check: >= 4x encode_all at s=2000, numpy."""
    from conftest import run_once

    rows = run_once(benchmark, compare, s_values=(HEADLINE_S,))
    assert rows[0]["speedup"] >= SPEEDUP_FLOOR, rows


def main() -> None:
    args = benchmark_parser(
        "Sets-of-sets child-encoding comparison",
        Path(__file__).resolve().parent.parent / "BENCH_setsofsets.json",
    ).parse_args()
    if not NumpyCellStore.available():
        sys.exit("NumPy is required for the sets-of-sets encoding comparison")
    rows = compare(seed=args.seed)
    for row in rows:
        numpy_times = row["numpy"]
        python_times = row["python"]
        print(
            f"s={row['s']:>5}  "
            f"loop={numpy_times['encode_loop_s']*1000:8.2f} ms  "
            f"batch={numpy_times['encode_all_s']*1000:7.2f} ms  "
            f"speedup={row['speedup']:.1f}x  "
            f"(python loop={python_times['encode_loop_s']*1000:.2f} ms)"
        )
    protocol_row = protocol_cross_backend(seed=args.seed)
    headline = next(row for row in rows if row["s"] == HEADLINE_S)
    if headline["speedup"] < SPEEDUP_FLOOR:
        sys.exit(
            f"encode_all speedup {headline['speedup']}x below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    output = args.output
    write_benchmark_record(
        output,
        benchmark="bench_setsofsets_encoding",
        description=(
            "Per-child loop vs batched IBLTArray child encoding per cell-store "
            "backend; bit-identical encodings, transcripts and recovered sets "
            "asserted across backends"
        ),
        config=benchmark_config(args.seed, s_values=list(S_VALUES)),
        universe=UNIVERSE,
        child_size=CHILD_SIZE,
        child_difference_bound=CHILD_DIFFERENCE_BOUND,
        speedup_floor=SPEEDUP_FLOOR,
        protocol_check=protocol_row,
        results=rows,
    )
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
