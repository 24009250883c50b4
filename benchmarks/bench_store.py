"""Sketch-store serving: O(d) incremental syncs vs O(n) from-scratch encodes.

A storeless server re-encodes its whole dataset for every session: build the
IBLT over all n elements, fold the whole-set verification hash over all n
elements, serialize.  A :class:`repro.store.SketchStore` server pays O(d)
per mutation batch (in-place cell updates, hash toggles) and O(cells(d)) to
copy and serialize the live table -- independent of n.

The measured loop emulates steady-state serving: per repetition a seeded
``d``-element delta (half inserts, half deletes) lands on the dataset, and
each path then produces alice's known-``d`` ``"set IBLT"`` message bytes --
the store by ``apply`` + live-table copy, the baseline by a full re-encode
of the mutated set.  The two byte strings are asserted identical on every
repetition (linearity makes the store path exact, not approximate).

The acceptance bar is >= 20x at n = 1e6, d = 100 (recorded floor 5x, the
regression threshold in ``BENCH_store.json``).

Run under pytest (small-n cases are the CI smoke), or standalone::

    PYTHONPATH=src python benchmarks/bench_store.py

which also rewrites ``BENCH_store.json`` at the repository root.
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
from repro.protocols.parties.setrecon import SetSource, ibf_alice
from repro.store import SketchConfig, SketchStore, StoreView, stored_ibf_party

UNIVERSE = 1 << 40
DIFFERENCE = 100  # delta size per repetition (half inserts, half deletes)
SET_SIZES = (10_000, 100_000, 1_000_000)
REPS = 3
SPEEDUP_FLOOR = 5.0  # recorded regression threshold; target is >= 20x at 1e6
TARGET = 20.0
KEY = "bench"


def make_dataset(seed: int, size: int) -> set[int]:
    return set(random.Random(seed).sample(range(UNIVERSE), size))


def make_delta(rng: random.Random, dataset: set[int]) -> tuple[list[int], list[int]]:
    """A seeded d-element delta disjoint from itself: d/2 fresh inserts,
    d/2 deletes of present keys."""
    deletes = rng.sample(sorted(dataset)[: 4 * DIFFERENCE], DIFFERENCE // 2)
    inserts: list[int] = []
    while len(inserts) < DIFFERENCE - DIFFERENCE // 2:
        key = rng.randrange(UNIVERSE)
        if key not in dataset:
            inserts.append(key)
    return sorted(inserts), sorted(deletes)


def first_message_bytes(party) -> bytes:
    """Alice's opening ``"set IBLT"`` message, serialized by its own codec."""
    send = next(party)
    return send.codec.encode(send.payload)


def measure_row(seed: int, size: int, reps: int = REPS) -> tuple[dict, dict]:
    """One (set size) row: per-rep delta, then serve both ways.

    Returns the result row plus the per-phase profile timings.
    """
    dataset = make_dataset(seed, size)
    rng = random.Random(seed + size)
    config = SketchConfig(UNIVERSE, seed=seed)
    ctx = config.context()
    store = SketchStore()
    view = StoreView(store, KEY, config, dataset)

    prime_start = time.perf_counter()
    first_message_bytes(stored_ibf_party("alice", view, DIFFERENCE))
    prime_s = time.perf_counter() - prime_start

    apply_s = serve_s = scratch_s = 0.0
    for _ in range(reps):
        inserts, deletes = make_delta(rng, dataset)

        start = time.perf_counter()
        store.apply(KEY, inserts, deletes)
        applied = time.perf_counter()
        cached_bytes = first_message_bytes(
            stored_ibf_party("alice", view, DIFFERENCE)
        )
        apply_s += applied - start
        serve_s += time.perf_counter() - applied

        dataset.difference_update(deletes)
        dataset.update(inserts)

        start = time.perf_counter()
        scratch_bytes = first_message_bytes(
            ibf_alice(SetSource(dataset, ctx), DIFFERENCE)
        )
        scratch_s += time.perf_counter() - start

        assert cached_bytes == scratch_bytes, (
            f"store-served message diverged from the re-encode at n={size}"
        )

    cached_s = apply_s + serve_s
    row = {
        "set_size": size,
        "difference": DIFFERENCE,
        "reps": reps,
        "scratch_encode_s": round(scratch_s / reps, 6),
        "cached_serve_s": round(cached_s / reps, 6),
        "speedup": round(scratch_s / cached_s, 2),
        "identical_message_bytes": True,
    }
    profile = {
        f"n{size}_prime_encode_s": round(prime_s, 6),
        f"n{size}_apply_s": round(apply_s / reps, 6),
        f"n{size}_serve_s": round(serve_s / reps, 6),
    }
    return row, profile


def compare(seed: int = DEFAULT_SEED) -> tuple[list[dict], dict]:
    rows, profile = [], {}
    for size in SET_SIZES:
        row, phases = measure_row(seed, size)
        rows.append(row)
        profile.update(phases)
    return rows, profile


# ---------------------------------------------------------------------------
# pytest entry points (small-n cases are the CI smoke test)
# ---------------------------------------------------------------------------

import pytest


@pytest.mark.timeout(300)
def test_smoke_store_serves_identical_bytes(benchmark):
    from conftest import run_once

    row, _ = run_once(benchmark, measure_row, DEFAULT_SEED, 2_000, 2)
    assert row["identical_message_bytes"]
    assert row["cached_serve_s"] > 0 and row["scratch_encode_s"] > 0


@pytest.mark.timeout(300)
def test_smoke_store_beats_reencode_at_modest_size(benchmark):
    """Even at n = 50k (far below the recorded rows) the store path wins."""
    from conftest import run_once

    row, _ = run_once(benchmark, measure_row, DEFAULT_SEED, 50_000, 2)
    assert row["speedup"] > 1.0, row


def main() -> None:
    args = benchmark_parser(
        "Sketch-store incremental serving vs from-scratch encodes",
        Path(__file__).resolve().parent.parent / "BENCH_store.json",
    ).parse_args()
    rows, profile = compare(seed=args.seed)
    for row in rows:
        print(
            f"n={row['set_size']:>9,}  d={row['difference']}  "
            f"scratch={row['scratch_encode_s']:.4f}s  "
            f"cached={row['cached_serve_s']:.6f}s  "
            f"speedup={row['speedup']:.1f}x"
        )
    headline = rows[-1]
    if headline["speedup"] < TARGET:
        sys.exit(
            f"store speedup {headline['speedup']}x at n={headline['set_size']} "
            f"is below the {TARGET}x target"
        )
    config = benchmark_config(
        args.seed,
        universe=UNIVERSE,
        difference=DIFFERENCE,
        set_sizes=list(SET_SIZES),
        reps=REPS,
    )
    if args.profile:
        config["profile"] = profile
    write_benchmark_record(
        args.output,
        benchmark="bench_store",
        description=(
            "Serving the known-d 'set IBLT' message from a live SketchStore "
            "(O(d) apply + table copy) vs re-encoding the mutated dataset "
            "from scratch (O(n) IBLT build + whole-set hash) after each "
            "100-element delta; message bytes asserted identical on every "
            "repetition"
        ),
        config=config,
        speedup_floor=SPEEDUP_FLOOR,
        results=rows,
    )
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
