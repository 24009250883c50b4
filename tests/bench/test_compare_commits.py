"""The acceptance arithmetic of ``benchmarks/compare_commits.py``."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

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


def test_pairs_that_all_tie_exactly_are_the_same_however_wide_their_spread():
    # bits_per_op at seeds 2018.. differ by seed, but each pair is byte-identical.
    bits = [1386.0, 1240.5, 1533.0, 1386.0, 1101.0, 1690.5, 1240.5, 1386.0, 1533.0, 980.0]
    row = verdict(bits, list(bits), "lower", 0.02)
    assert (row["verdict"], row["wins"], row["losses"]) == ("same", 0, 0)
    # One pair off by a bit is no longer a tie throughout: the spread decides.
    assert verdict(bits, bits[:-1] + [981.0], "lower", 0.02)["verdict"] == "unresolved"


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [100.0, 140.0, 90.0, 150.0, 95.0, 145.0, 105.0, 135.0, 98.0, 142.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(noisy, [value * 1.5 for value in noisy], "lower", 0.1)["verdict"] == "worse"


def test_a_run_counts_when_it_printed_its_result_line():
    line = '{"correct": false, "attempted": 8, "failed": 8, "metrics": {}}'
    assert compare_commits.result_line(f"noise\n{line}\n")["failed"] == 8
    assert compare_commits.result_line("") is None
    assert compare_commits.result_line("Traceback ...\nKilled\n") is None
    assert compare_commits.result_line('{"no": "metrics"}') is None


def test_only_a_run_whose_ops_failed_counts_despite_its_exit_code():
    counted = compare_commits.counted
    ops_failed = {"correct": False, "attempted": 8, "failed": 3, "metrics": {}}
    assert counted(ops_failed, 1, "w: failed op: timeout\n", "w")["exit_code"] == 1
    assert counted({**ops_failed, "correct": True, "failed": 0}, 0, "", "w")["failed"] == 0
    # Exit 1 with no failed op: a tier, determinism or workload check failed.
    invalid = {"correct": False, "attempted": 8, "failed": 0, "metrics": {}}
    with pytest.raises(SystemExit, match="invalid run"):
        counted(invalid, 1, "w: invalid run: cell backend resolved to 'x'\n", "w")
    with pytest.raises(SystemExit, match="invalid run"):
        counted(invalid, 1, "", "w")
    # Failed ops do not hide an invalid run beside them.
    with pytest.raises(SystemExit, match="invalid run"):
        counted(ops_failed, 1, "w: invalid run: an op's bits or rounds changed\n", "w")
    with pytest.raises(SystemExit, match="without a result line"):
        counted(None, -9, "", "w")


def test_a_fresh_copy_holds_only_tracked_and_unignored_files(tmp_path):
    checkout, into = tmp_path / "checkout", tmp_path / "copy"
    (checkout / "pkg" / "__pycache__").mkdir(parents=True)
    (checkout / ".gitignore").write_text("__pycache__/\n.work/\n")
    (checkout / "pkg" / "mod.py").write_text("x = 1\n")
    (checkout / "pkg" / "__pycache__" / "mod.pyc").write_bytes(b"stale")
    (checkout / ".work").mkdir()
    (checkout / ".work" / "journal").write_text("old run\n")
    (checkout / "new.py").write_text("untracked but not ignored\n")
    subprocess.run(["git", "init", "-q"], cwd=checkout, check=True)
    subprocess.run(["git", "add", ".gitignore", "pkg/mod.py"], cwd=checkout, check=True)
    compare_commits.fresh_copy(checkout, into)
    copied = sorted(str(path.relative_to(into)) for path in into.rglob("*") if path.is_file())
    assert copied == [".gitignore", "new.py", "pkg/mod.py"]
