"""The verdicts of tools/bench_pairs.py: when a change claims a gain, and when it reads worse."""

import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)  # tools/ is not a package
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [100.0 + i for i in range(10)]  # median 104.5, quartiles 101.75 and 107.25


def test_ten_clear_wins_are_a_gain():
    verdict = bench_pairs.compare(PARENT, [p + 20 for p in PARENT], "higher", 0.25)
    assert (verdict["wins"], verdict["pairs"], verdict["gain"]) == (10, 10, True)
    assert verdict["change_over_parent"] == pytest.approx(124.5 / 104.5)
    assert verdict["regression"] == "no worse"


@pytest.mark.parametrize("losses, gain", [(1, True), (2, False)])
def test_a_gain_needs_nine_wins_in_ten(losses, gain):
    change = [p - 1 if i < losses else p + 20 for i, p in enumerate(PARENT)]
    verdict = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert verdict["wins"] == 10 - losses
    assert verdict["gain"] is gain


def test_ties_count_for_neither_side():
    change = [p if i < 2 else p + 20 for i, p in enumerate(PARENT)]
    verdict = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert verdict["wins"] == 8
    assert verdict["gain"] is False
    # against the change, the same pairs are eight losses and two ties: still no win
    assert bench_pairs.compare(change, PARENT, "higher", 0.25)["wins"] == 0


def test_a_gain_must_clear_the_parents_spread():
    # every pair won, but by less than the distance between the parent's quartiles (5.5)
    assert bench_pairs.compare(PARENT, [p + 5 for p in PARENT], "higher", 0.25)["gain"] is False
    assert bench_pairs.compare(PARENT, [p + 6 for p in PARENT], "higher", 0.25)["gain"] is True


def test_lower_is_better_flips_the_sign():
    verdict = bench_pairs.compare(PARENT, [p - 20 for p in PARENT], "lower", 0.25)
    assert (verdict["wins"], verdict["gain"], verdict["regression"]) == (10, True, "no worse")
    verdict = bench_pairs.compare(PARENT, [p + 20 for p in PARENT], "lower", 0.25)
    assert (verdict["wins"], verdict["gain"]) == (0, False)


@pytest.mark.parametrize(
    "change, sign, bound, expected",
    [
        # the change's median past the bound on the bad side
        ([p - 30 for p in PARENT], 1, 0.25, "worse"),
        ([p + 30 for p in PARENT], -1, 0.25, "worse"),
        # within the bound, and the parent's quartiles (5.5 apart) inside it (26.1)
        ([p - 20 for p in PARENT], 1, 0.25, "no worse"),
        # within the bound, but the bound (2.09) is tighter than the parent's spread
        ([p - 1 for p in PARENT], 1, 0.02, "unresolved"),
        ([p + 1 for p in PARENT], -1, 0.02, "unresolved"),
        # the same spread, but every change run beats every parent run
        ([p + 10 for p in PARENT], 1, 0.02, "no worse"),
        ([p - 10 for p in PARENT], -1, 0.02, "no worse"),
    ],
)
def test_regression_verdicts(change, sign, bound, expected):
    assert bench_pairs.regression(PARENT, change, sign, bound) == expected
    better = "higher" if sign > 0 else "lower"
    assert bench_pairs.compare(PARENT, change, better, bound)["regression"] == expected


def test_one_pair_has_no_spread():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0)
    verdict = bench_pairs.compare([10.0], [11.0], "higher", 0.25)
    assert (verdict["wins"], verdict["gain"], verdict["regression"]) == (1, True, "no worse")


def test_each_side_records_the_code_it_measured(tmp_path):
    def git(*argv):
        return subprocess.run(["git", "-C", str(tmp_path), *argv], capture_output=True, check=True).stdout

    assert bench_pairs.checkout_code(str(tmp_path)) == "unknown"  # not a repository of its own
    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD").decode().strip()
    assert bench_pairs.checkout_code(str(tmp_path)) == head
    (tmp_path / "b.txt").write_text("untracked\n")
    assert bench_pairs.checkout_code(str(tmp_path)) == head  # only tracked files count
    (tmp_path / "a.txt").write_text("two\n")
    digest = hashlib.sha256(git("diff", "HEAD")).hexdigest()[:12]
    assert bench_pairs.checkout_code(str(tmp_path)) == f"{head}+dirty:{digest}"
    assert bench_pairs.checkout_code(str(tmp_path / "sub")) == "unknown"  # missing, or inside another repository


def _bench(cpu_model: str, median: float) -> dict:
    verdict = {"change": {"median": median}}
    return {"cpu_model": cpu_model, "python": "3.11.7", "nproc": 2, "workloads": {"figures": {"op_tail_ms": verdict}}}


def test_the_trajectory_reads_the_latest_file_from_the_same_host(tmp_path):
    for label, cpu_model, median in [("3", "Xeon", 3.0), ("10", "Xeon", 2.0), ("10b", "Xeon", 1.6), ("12", "EPYC", 1.0)]:
        (tmp_path / f"BENCH_{label}.json").write_text(json.dumps(_bench(cpu_model, median)))
    path = tmp_path / "BENCH_11.json"
    report = _bench("Xeon", 1.2)
    path.write_text(json.dumps(report))
    # 10b is the latest label from the same host (10 < 10b, and 3 < 10 by number); 12 ran on another CPU
    assert bench_pairs.trajectory(str(path), report) == [
        "change-side medians against BENCH_10b.json's:",
        "  figures op_tail_ms: 1.2 against 1.6 (0.750x)",
    ]


def test_the_trajectory_says_when_no_file_is_from_the_same_host(tmp_path):
    (tmp_path / "BENCH_12.json").write_text(json.dumps(_bench("EPYC", 1.0)))
    path = tmp_path / "BENCH_13.json"
    report = _bench("Xeon", 1.2)
    path.write_text(json.dumps(report))
    assert bench_pairs.trajectory(str(path), report) == [
        "no other BENCH_*.json ran on cpu_model Xeon, python 3.11.7, nproc 2"
    ]
