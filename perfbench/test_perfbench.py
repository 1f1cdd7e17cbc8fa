"""The benchmark's own tests; about a minute on 2 CPUs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Counts that a traced run takes over one pass of the seeded operations
# plus the probes, so they repeat exactly for a seed.
EXACT = (
    "core.calls",
    "core.result_bits",
    "oracle.subsets_listed",
    "budget.refusals",
    "budget.false_refusals",
    "loopnest.lines_parsed",
    "loopnest.simulate_entries",
    "fractal.cells",
    "fractal.output_bytes",
    "cli.output_bytes",
    "cli.exit_mismatches",
)


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def exact_counts(seed: int) -> dict:
    done = run("--workload=all", f"--seed={seed}", "--seconds=1", "--trace=1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        workload: tuple(result["metrics"][f"{workload}.{name}"]["value"] for name in EXACT)
        for workload in workloads.WORKLOADS
    }


def test_exact_counts_repeat_for_a_seed_and_change_with_it():
    first, again, other = exact_counts(7), exact_counts(7), exact_counts(8)
    assert first == again
    for workload in workloads.WORKLOADS:
        assert first[workload] != other[workload], workload


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("--workload=library", "--seed=1", "--seconds=1", "--trace=0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_same_seed_same_inputs():
    calls = tracing.entry_points(ROOT)

    def names(seed):
        return {w: [op.name for op in workloads.make(w, seed, calls, ROOT)[0]] for w in workloads.WORKLOADS}

    assert names(3) == names(3)
    assert all(names(3)[w] != names(4)[w] for w in workloads.WORKLOADS)


def test_checks_reject_wrong_outputs():
    from termirial import BudgetExceededError

    assert workloads.expect(lambda: 10)(10) is None
    assert workloads.expect(lambda: 10)(11) is not None
    assert workloads.expect(lambda: 10)(RecursionError()) is not None
    fits = workloads.budgeted(lambda: 792, 792, 10**4)
    assert fits(BudgetExceededError("nested_sum", 46656, 10**4)) is not None
    over = workloads.budgeted(lambda: 792, 792, 100)
    assert over(BudgetExceededError("nested_sum", 46656, 100)) is None

    good = "###\n##.\n#..\n##.\n#..\n#.."  # the (3, 2) figure
    assert reference.check_ascii(good, 3, 2) is None
    assert reference.check_ascii(good.replace("##.", "#..", 1), 3, 2) is not None
    assert reference.check_ascii(good + "\n#..", 3, 2) is not None
    svg = "<svg>" + "<rect/>" * 10 + "</svg>"
    assert reference.check_svg(svg, 3, 2) is None
    assert reference.check_svg(svg.replace("<rect/>", "", 1), 3, 2) is not None


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
