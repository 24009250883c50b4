"""Evidence for the default IBLT cell widths: 4-bit counts, 16-bit checksums.

A seeded Monte Carlo on the ``set-known`` shape: a difference of d = 16 keys
(8 on each side) in 68 cells, k = 4, u = 2^20, every trial with its own hash
seed and keys, each width pair run on the same trials.  A trial either fails
to peel (detected), empties the table with exactly the planted difference, or
empties it with a wrong answer: the one outcome only the caller's whole-set
hash would catch.  Alice's shared keys are left out: Bob's subtraction is
exact modulo ``2**count_bits``, so the difference table holds the residues
of a table of the difference alone.

Run as a script for the grid ``docs/protocols.md`` records::

    PYTHONPATH=src python tests/iblt/test_cell_widths.py --trials 20000
"""

import argparse
import math
import random

from repro.hashing import derive_seed
from repro.iblt import IBLT, IBLTParameters

SEED = 2018
CELLS = 68
KEY_BITS = 20
HALF = 8
TRIALS = 2000
_DEFAULTS = IBLTParameters(CELLS, KEY_BITS, seed=0)
#: ``(checksum_bits, count_bits)``: today's defaults, and the widths before.
DEFAULT_WIDTHS = (_DEFAULTS.checksum_bits, _DEFAULTS.count_bits)
OLD_WIDTHS = (32, 16)


def outcomes(checksum_bits, count_bits, trials=TRIALS, seed=SEED):
    """``(peel failures, wrong empties)`` over ``trials`` seeded trials."""
    failures = wrong = 0
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "cell-widths", trial))
        drawn = rng.sample(range(1 << KEY_BITS), 2 * HALF)
        alice, bob = set(drawn[:HALF]), set(drawn[HALF:])
        params = IBLTParameters(
            CELLS, KEY_BITS, derive_seed(seed, "cell-widths-table", trial),
            checksum_bits=checksum_bits, count_bits=count_bits,
        )
        table = IBLT.from_items(params, alice)
        table.delete_batch(bob)
        result = table.try_decode()
        if not result.success:
            failures += 1
        elif (result.positive, result.negative) != (alice, bob):
            wrong += 1
    return failures, wrong


def wilson_interval(successes, trials, z=1.96):
    """The 95% Wilson score interval of a binomial share."""
    share = successes / trials
    denominator = 1 + z * z / trials
    centre = (share + z * z / (2 * trials)) / denominator
    spread = z * math.sqrt(share * (1 - share) / trials + z * z / (4 * trials * trials))
    return centre - spread / denominator, centre + spread / denominator


def test_the_defaults_are_the_narrow_widths():
    assert DEFAULT_WIDTHS == (16, 4)


def test_narrow_cells_fail_as_often_as_wide_ones_and_never_lie():
    old_failures, _ = outcomes(*OLD_WIDTHS)
    failures, wrong = outcomes(*DEFAULT_WIDTHS)
    low, high = wilson_interval(old_failures, TRIALS)
    assert low <= failures / TRIALS <= high
    assert wrong == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=TRIALS)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args()
    print("| checksum_bits | count_bits | peel failures | wrong empties |")
    print("|---|---|---|---|")
    for checksum_bits in (32, 16, 12, 8):
        for count_bits in (16, 4):
            failures, wrong = outcomes(checksum_bits, count_bits, args.trials, args.seed)
            print(
                f"| {checksum_bits} | {count_bits} | {failures} / {args.trials} "
                f"({failures / args.trials:.2%}) | {wrong} / {args.trials} |"
            )


if __name__ == "__main__":
    main()
