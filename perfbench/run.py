"""Benchmark for termirial: three closed-loop workloads, checked outputs,
end-to-end metrics, and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload library --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from anywhere; the package is imported from `src/` next to this
directory, so nothing needs installing.  Each workload runs in a fresh
interpreter (`worker.py`) with one caller: the next operation starts when
the previous one returns.  `--trace 0` prints the end-to-end metrics of
BENCHMARK.json and `--trace 1` the per-layer ones, one row per workload,
and the last line of stdout is one JSON object.  Known-defect probes that
fail are listed by name.  Each run also writes its full record, with the
machine it ran on, to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh interpreters per run, plus the worker's own.
SETUP_REPEATS = 10
RUN_TIMEOUT_S = 170
# Spread of one `python -m termirial` process's wall time between single
# runs, measured on a 2-CPU Xeon with Python 3.11.7.  Read `cli` rows against it.
CLI_SINGLE_RUN_SPREAD = "+-25%"


def load_units(key: str) -> dict:
    """Metric name -> unit, for BENCHMARK.json's "end_to_end" or "per_layer" list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def environment(seed: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "seed": seed,
        "commit": git_commit(),
        "cli_single_run_spread": CLI_SINGLE_RUN_SPREAD,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def spawn(args, workload: str, deadline: float, setup_only: bool) -> dict:
    """Run worker.py to completion and return the JSON it printed."""
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        f"--workload={workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--root={ROOT}",
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv.append(f"--spawned-at={time.monotonic_ns()}")
    # Its own session, so that a timeout also stops the CLI processes it started.
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.exit(f"{workload}: the worker did not finish in time")
    if child.returncode != 0:
        sys.exit(f"{workload}: the worker exited with {child.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def run_workload(args, workload: str, deadline: float) -> dict:
    setups = []
    if not args.trace:
        setups = [spawn(args, workload, deadline, True)["setup_s"] for _ in range(SETUP_REPEATS)]
    result = spawn(args, workload, deadline, False)
    e2e = result["end_to_end"]
    e2e["setup_s"] = statistics.median(setups + [e2e["setup_s"]])
    return result


def print_row(workload: str, metrics: dict, units: dict) -> None:
    cells = "  ".join(f"{name}={value:.6g} {units[name]}" for name, value in metrics.items())
    print(f"{workload:<10} {cells}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "termirial", "__init__.py")):
        print(f"error: no termirial package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    units = load_units("per_layer" if args.trace else "end_to_end")
    env = environment(args.seed)
    print("# " + json.dumps(env, sort_keys=True))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(chosen)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        result = run_workload(args, workload, deadline)
        e2e = result["end_to_end"]
        metrics = {name: (result["per_layer"] if args.trace else e2e)[name] for name in units}
        print_row(workload, metrics, units)
        print(
            f"{'':<10} op_tail_ms is p{e2e['tail_percentile']:.2f} of {e2e['samples']} samples"
            f" over {e2e['passes']} passes"
        )
        for name, reason in dict(result["failures"]).items():
            print(f"{'':<10} FAILED {name}: {reason}")
        for probe in result["probes"]:
            verdict = f"FAILED: {probe['failure']}" if probe["failure"] else "ok"
            print(f"{'':<10} probe {probe['name']}: {verdict}")
        record = dict(result, workload=workload, environment=env, trace=args.trace, seconds=args.seconds)
        path = os.path.join(out_dir, f"{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)

        failed = len(result["failures"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += failed
        summary["correct"] = summary["correct"] and failed == 0
        prefix = "" if len(chosen) == 1 else f"{workload}."
        summary["metrics"].update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
