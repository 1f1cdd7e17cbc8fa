"""Paired benchmark runs of two checkouts, summarised into one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 --seconds 35 --first-seed 101 --label 9

Each pair runs `perfbench/run.py --trace 0` once in each checkout, on the
same seed, with the same workload and run length; the side that runs first
alternates from pair to pair, and pair i uses seed first-seed + i.  The file
written, BENCH_<label>.json at the root of this repository, holds for each
workload and end-to-end metric both sides' median and quartiles, the number
of pairs the change won (ties count for neither side), the change's median
over the parent's, and every run's value; and next to them the Python
version, CPU count, CPU model and the code of each checkout: its HEAD
commit, plus `+dirty:` and the first 12 hex digits of the SHA-256 of `git
diff HEAD` when its tracked files differ from HEAD.  "gain" is
true when the change won at least nine pairs in ten and its median beats the
parent's by more than the distance between the parent's quartiles.
"regression" is the no-regression verdict, with each metric's `bound` from
BENCHMARK.json read as a fraction of the parent's median: "worse" when the
change's median is worse than the parent's by more than that fraction;
otherwise "unresolved" when the parent's quartile spread is wider than it
and not every change run beats every parent run; otherwise "no worse".

After writing the file it prints the trajectory: each change-side median
against that of the latest other BENCH_*.json beside it that ran on the
same CPU model, Python version and CPU count, latest by label (its leading
number, then the rest: 19 < 19b < 20), or says that no file matches.
Medians from different hosts would differ by the host, not by the code.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout_code(checkout: str) -> str:
    """HEAD of the checkout's own git repository, marked dirty by a hash of its diff; 'unknown' outside one."""
    def git(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", checkout, *argv], capture_output=True)

    top = git("rev-parse", "--show-toplevel")
    if top.returncode or os.path.realpath(top.stdout.decode().strip()) != os.path.realpath(checkout):
        return "unknown"
    head = git("rev-parse", "HEAD").stdout.decode().strip() or "unknown"
    diff = git("diff", "HEAD").stdout
    return f"{head}+dirty:{hashlib.sha256(diff).hexdigest()[:12]}" if diff else head


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py --trace 0` run: its environment line and its summary line."""
    argv = [sys.executable, os.path.join(checkout, "perfbench", "run.py")]
    argv += [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}", "--trace=0"]
    lines = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    return {"environment": json.loads(lines[0].removeprefix("# ")), "summary": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def regression(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """The no-regression verdict, with bound a fraction of the parent's median (see the module docstring)."""
    parent_median = statistics.median(parent)
    allowed = bound * abs(parent_median)
    if sign * (statistics.median(change) - parent_median) < -allowed:
        return "worse"
    parent_q1, parent_q3 = quartiles(parent)
    if parent_q3 - parent_q1 > allowed and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "no worse"


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides' spread, the pairs the change won, and the verdicts on a gain and on a regression."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    parent_q1, parent_q3 = quartiles(parent)
    change_q1, change_q3 = quartiles(change)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "better": better,
        "parent": {"median": parent_median, "q1": parent_q1, "q3": parent_q3, "runs": parent},
        "change": {"median": change_median, "q1": change_q1, "q3": change_q3, "runs": change},
        "wins": wins,
        "pairs": len(parent),
        "change_over_parent": change_median / parent_median if parent_median else None,
        "gain": wins * 10 >= 9 * len(parent) and sign * (change_median - parent_median) > parent_q3 - parent_q1,
        "regression": regression(parent, change, sign, bound),
    }


HOST_KEYS = ("cpu_model", "python", "nproc")


def label_order(name: str) -> tuple[int, str]:
    """BENCH_<label>.json ordered by the label's leading number, then the rest; -1 when it has none."""
    label = name.removeprefix("BENCH_").removesuffix(".json")
    digits = len(label) - len(label.lstrip("0123456789"))
    return int(label[:digits] or -1), label[digits:]


def trajectory(path: str, report: dict) -> list[str]:
    """Lines comparing report's change-side medians with the latest other BENCH_*.json beside path from its host."""
    folder, name = os.path.split(path)
    host = [report[key] for key in HOST_KEYS]
    same = []
    for other in os.listdir(folder):
        if other.startswith("BENCH_") and other.endswith(".json") and other != name:
            with open(os.path.join(folder, other), encoding="utf-8") as handle:
                earlier = json.load(handle)
            if [earlier.get(key) for key in HOST_KEYS] == host:
                same.append((label_order(other), other, earlier))
    if not same:
        return ["no other BENCH_*.json ran on " + ", ".join(f"{key} {value}" for key, value in zip(HOST_KEYS, host))]
    _, other, earlier = max(same, key=lambda entry: entry[:2])
    lines = [f"change-side medians against {other}'s:"]
    for workload, metrics in report["workloads"].items():
        for metric, verdict in metrics.items():
            before = earlier["workloads"].get(workload, {}).get(metric)
            if before:
                now, then = verdict["change"]["median"], before["change"]["median"]
                ratio = f" ({now / then:.3f}x)" if then else ""
                lines.append(f"  {workload} {metric}: {now:.6g} against {then:.6g}{ratio}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--workload", default="all", help="a perfbench workload, or all")
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    declared_metrics = {metric["name"]: (metric["better"], metric["bound"]) for metric in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]] if args.workload == "all" else [args.workload]

    sides = {"parent": args.parent, "change": args.change}
    commits = {side: checkout_code(path) for side, path in sides.items()}  # before any run, as measured
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, args.seconds))
            metrics = runs[side][-1]["summary"]["metrics"]
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + "  ".join(f"{name}={m['value']:.6g}" for name, m in metrics.items()), flush=True)

    def values(side: str, workload: str, metric: str) -> list[float]:
        key = metric if len(workloads) == 1 else f"{workload}.{metric}"
        return [run["summary"]["metrics"][key]["value"] for run in runs[side]]

    environment = runs["change"][0]["environment"]
    report = {
        "python": environment["python"],
        "nproc": environment["nproc"],
        "cpu_model": environment["cpu_model"],
        "commits": commits,
        "seeds": [args.first_seed + i for i in range(args.pairs)],
        "seconds": args.seconds,
        "failed": {side: [run["summary"]["failed"] for run in runs[side]] for side in sides},
        "attempted": {side: [run["summary"]["attempted"] for run in runs[side]] for side in sides},
        "workloads": {
            workload: {
                metric: compare(values("parent", workload, metric), values("change", workload, metric), *rule)
                for metric, rule in declared_metrics.items()
            }
            for workload in workloads
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    print("\n".join(trajectory(path, report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
