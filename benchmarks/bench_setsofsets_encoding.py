"""Sets-of-sets child-encoding comparison: per-child loop vs batch pipeline.

The structured set-of-sets protocols (Section 3) encode every child set of a
parent into a *(child IBLT, hash)* key.  Built one child at a time through
``ChildEncodingScheme.encode``, the ``O(n)`` encoding term dominates every
structured protocol; the batched pipeline
(:class:`repro.iblt.multi.IBLTArray` behind
``ChildEncodingScheme.encode_all``) flattens the parent to
``(child_index, element)`` pairs, hashes the whole flat array once and
scatters it into one ``(s, num_cells)`` cell tensor.

This benchmark times both paths, asserting bit-identical encodings
throughout, and runs one full ``protocol="iblt_of_iblts"`` exchange under
every accepted ``backend=`` name asserting identical transcripts and
recovered sets.  The acceptance bar is a >= 4x ``encode_all`` speedup over
the per-child loop at ``s = 2000`` small children.

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
from repro.iblt import IBLTParameters

UNIVERSE = 1 << 20
CHILD_SIZE = 8
CHILD_DIFFERENCE_BOUND = 4  # sizes the per-child sketches (small children)
CHILD_HASH_BITS = 48
S_VALUES = (500, 2000)
HEADLINE_S = 2000
SPEEDUP_FLOOR = 4.0  # acceptance bar for encode_all at s = HEADLINE_S
ROUNDS = 5  # measurement rounds per s


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


def _time_paths(scheme, children) -> tuple[float, float, list[int]]:
    """One timed run of (per-child loop, batch)."""
    start = time.perf_counter()
    loop_keys = [scheme.encode(child) for child in children]
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    batch_keys = scheme.encode_all(children)
    batch_s = time.perf_counter() - start
    assert batch_keys == loop_keys, "batch encodings differ from loop"
    return loop_s, batch_s, batch_keys


def compare(
    s_values=S_VALUES, rounds: int = ROUNDS, seed: int = DEFAULT_SEED
) -> list[dict]:
    """Time both paths per s; assert bit-identical encodings.

    Best-of-round times are compared (the standard microbenchmark guard
    against one-sided noise).
    """
    scheme = _scheme(seed)
    rows = []
    for num_children in s_values:
        children = _children(num_children, seed=seed + 7)
        loop_best = batch_best = float("inf")
        for _ in range(rounds):
            loop_s, batch_s, _ = _time_paths(scheme, children)
            loop_best = min(loop_best, loop_s)
            batch_best = min(batch_best, batch_s)
        rows.append(
            {
                "s": num_children,
                "child_size": CHILD_SIZE,
                "numpy": {
                    "encode_loop_s": round(loop_best, 6),
                    "encode_all_s": round(batch_best, 6),
                },
                "speedup": round(loop_best / batch_best, 2),
                "identical_encodings": True,
            }
        )
    return rows


def protocol_cross_backend(num_children: int = 64, seed: int = 11) -> dict:
    """One flat IBLT-of-IBLTs exchange per accepted ``backend=`` name:
    identical transcripts."""
    rng = random.Random(seed)
    children = _children(num_children, seed=seed)
    bob_children = [set(child) for child in children]
    for index in rng.sample(range(num_children), 3):
        bob_children[index].add(rng.randrange(UNIVERSE))
    alice = SetOfSets(children)
    bob = SetOfSets(bob_children)
    backends = [None, "auto", "numpy"]
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


def test_encode_smoke_small_s(benchmark):
    """Loop-vs-batch encoding at small s (CI smoke)."""
    from conftest import run_once

    scheme = _scheme()
    children = _children(200)
    loop_s, batch_s, batch_keys = run_once(benchmark, _time_paths, scheme, children)
    assert len(batch_keys) == 200


def test_identical_encodings_loop_and_batch(benchmark):
    from conftest import run_once

    rows = run_once(benchmark, compare, s_values=(200,), rounds=1)
    assert all(row["identical_encodings"] for row in rows)


def test_identical_protocol_transcripts(benchmark):
    from conftest import run_once

    row = run_once(benchmark, protocol_cross_backend)
    assert row["identical_transcripts"] and row["identical_recovered_sets"]


def test_numpy_encode_all_speedup_floor(benchmark):
    """The acceptance check: >= 4x encode_all at s=2000."""
    from conftest import run_once

    rows = run_once(benchmark, compare, s_values=(HEADLINE_S,))
    assert rows[0]["speedup"] >= SPEEDUP_FLOOR, rows


def main() -> None:
    args = benchmark_parser(
        "Sets-of-sets child-encoding comparison",
        Path(__file__).resolve().parent.parent / "BENCH_setsofsets.json",
    ).parse_args()
    rows = compare(seed=args.seed)
    for row in rows:
        times = row["numpy"]
        print(
            f"s={row['s']:>5}  "
            f"loop={times['encode_loop_s']*1000:8.2f} ms  "
            f"batch={times['encode_all_s']*1000:7.2f} ms  "
            f"speedup={row['speedup']:.1f}x"
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
            "Per-child loop vs batched IBLTArray child encoding; bit-identical "
            "encodings, and transcripts and recovered sets asserted across the "
            "accepted backend names"
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
