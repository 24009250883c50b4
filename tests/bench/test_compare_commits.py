"""The acceptance arithmetic of ``benchmarks/compare_commits.py``."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "compare_commits.py"
spec = importlib.util.spec_from_file_location("compare_commits", SCRIPT)
compare_commits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_commits)
verdict = compare_commits.verdict

PARENT = [86.0, 85.0, 88.0, 85.5, 87.0, 86.5, 85.2, 89.0, 86.1, 85.9]


def test_a_gain_needs_nine_pairs_and_a_median_clear_of_the_parents_spread():
    change = [value - 55.0 for value in PARENT]
    row = verdict(PARENT, change, "lower", 0.25)
    assert (row["verdict"], row["wins"], row["losses"]) == ("better", 10, 0)
    assert row["clear_of_parent_iqr"]
    # Two lost pairs of ten: no claim, however large the median gain.
    row = verdict(PARENT, [90.0, 90.0] + change[2:], "lower", 0.25)
    assert (row["verdict"], row["wins"]) == ("same", 8)
    # Every pair won, but by less than the parent's own inter-quartile distance.
    row = verdict(PARENT, [value - 0.1 for value in PARENT], "lower", 0.25)
    assert (row["verdict"], row["wins"], row["clear_of_parent_iqr"]) == ("same", 10, False)


def test_direction_follows_the_metric():
    shares = [0.90, 0.91, 0.92, 0.90, 0.91]
    assert verdict(shares, [1.0] * 5, "higher", 0.005)["verdict"] == "better"
    assert verdict([1.0] * 5, shares, "higher", 0.005)["verdict"] == "worse"


def test_identical_counts_are_the_same_and_ties_win_nothing():
    row = verdict([478315.5] * 10, [478315.5] * 10, "lower", 0.02)
    assert (row["verdict"], row["wins"], row["losses"]) == ("same", 0, 0)


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [100.0, 140.0, 90.0, 150.0, 95.0, 145.0, 105.0, 135.0, 98.0, 142.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(noisy, [value * 1.5 for value in noisy], "lower", 0.1)["verdict"] == "worse"
