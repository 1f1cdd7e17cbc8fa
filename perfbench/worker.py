"""One workload in a fresh interpreter: set up, run timed passes, check every
output, and print one JSON line of results on stdout.

`run.py` starts this script; it is not meant to be run by hand.  With
`--setup-only` it stops once set-up is done, so that `run.py` can time
set-up several times in one run.  The interpreter keeps its default
recursion limit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import reference
import tracing
import workloads

# Repetitions of the bare-interpreter and fresh-import timings.
STARTUP_REPEATS = 5


def set_up(args):
    import termirial

    source = os.path.join(args.root, "src", "termirial")
    if os.path.dirname(os.path.abspath(termirial.__file__)) != source:
        sys.exit(f"termirial was imported from {termirial.__file__}, not from {source}")
    calls = tracing.entry_points(args.root)
    ops, probes = workloads.make(args.workload, args.seed, calls, args.root)
    return ops, probes, (time.monotonic_ns() - args.spawned_at) / 1e9


class Phase:
    """Closed-loop passes over one op list, until `seconds` have gone by."""

    def __init__(self, ops, seconds: float, tracer: tracing.Tracer | None = None):
        self.latencies: list[int] = []
        self.pass_p50_ns: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.first_pass: list[dict] = []
        self.passes = 0
        runs = [op.run if tracer is None else tracer.wrap("op", op.run) for op in ops]
        clock = time.perf_counter_ns
        deadline = time.monotonic() + seconds
        while True:
            outcomes = []
            for index, (op, run) in enumerate(zip(ops, runs)):
                if tracer is not None:
                    tracer.op_id = (self.passes, index)
                start = clock()
                try:
                    out = run()
                except Exception as exc:  # the check decides whether this raise was expected
                    out = exc
                self.latencies.append(clock() - start)
                outcomes.append(outcome(op, out))
                del out
                # Collect this op's garbage now, so the next op starts from the
                # same collector state whatever ran before it.
                gc.collect()
            self.pass_p50_ns.append(statistics.median(self.latencies[-len(ops):]))
            self.failures += [(o["name"], o["failure"]) for o in outcomes if o["failure"]]
            if not self.passes:
                self.first_pass = outcomes
            self.passes += 1
            if time.monotonic() >= deadline:
                break

    @property
    def ops_per_s(self) -> float:
        """Operations over the time they kept the caller busy, over the whole phase."""
        return len(self.latencies) / (sum(self.latencies) / 1e9)

    @property
    def op_p50_ms(self) -> float:
        """Median latency of a pass, averaged over the passes.

        The host's speed shifts in steps that last tens of seconds; a mean of
        per-pass medians moves with the share of the run each step lasted,
        where one median over the whole run jumps with whichever step held
        the longer share.
        """
        return statistics.mean(self.pass_p50_ns) / 1e6


def outcome(op, out) -> dict:
    failure = op.check(out)
    refused = workloads.is_refusal(op, out)
    return {
        "name": op.name,
        "failure": failure,
        "refused": refused,
        "false_refusal": refused and failure is not None,
        "exit_mismatch": bool(op.argv) and (isinstance(out, BaseException) or out.returncode not in op.exits),
    }


def tail(latencies: list[int]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def end_to_end(phase: Phase, setup_s: float, workload: str) -> dict:
    value, percentile, samples = tail(phase.latencies)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": phase.op_p50_ms,
        "op_tail_ms": value / 1e6,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "tail_percentile": percentile,
        "samples": samples,
        "passes": phase.passes,
    }


def startup_ms(root: str) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and median in-process time of `import termirial.cli`."""
    bare, imported = [], []
    script = "import time; t = time.perf_counter(); import termirial.cli; print(time.perf_counter() - t)"
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True)
        bare.append((time.perf_counter() - start) * 1e3)
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=tracing.cli_env(root), capture_output=True, check=True
        )
        imported.append(float(done.stdout) * 1e3)
    return statistics.median(bare), statistics.median(imported)


def peak_bytes_per_cell() -> float:
    import tracemalloc

    from termirial import fractal

    n, p = workloads.ANCHOR_FIGURE
    tracemalloc.start()
    try:
        fractal.build(n, p, budget=workloads.CELL_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / reference.termirial(n, p)


def per_layer(args, ops, probe_outcomes, untraced: Phase) -> dict:
    tracer = tracing.Tracer()
    calls = tracer.traced_entry_points(tracing.entry_points(args.root))
    traced_ops, _ = workloads.make(args.workload, args.seed, calls, args.root)
    traced = Phase(traced_ops, args.seconds / 2, tracer)
    spans, passes = tracer.spans, traced.passes
    own = tracing.self_times(spans)

    def select(prefix, first_pass=False):
        return [s for s in spans if s[3].startswith(prefix) and not (first_pass and s[2][0])]

    def busy_s(prefix):
        return sum(own[s[0]] for s in select(prefix)) / passes / 1e9

    def work(prefix, first_pass=True):
        return sum(s[6] for s in select(prefix, first_pass))

    def rate(count, prefix):
        busy = sum(own[s[0]] for s in select(prefix))
        return count / (busy / 1e9) if busy else 0.0

    def ns_per(count, prefix):
        return sum(own[s[0]] for s in select(prefix)) / count if count else 0.0

    def median_us(prefix):
        durations = [s[5] - s[4] for s in select(prefix)]
        return statistics.median(durations) / 1e3 if durations else 0.0

    counted = traced.first_pass + probe_outcomes
    svg_cells = sum(traced_ops[s[2][1]].svg_cells for s in select("fractal.render_svg"))
    metrics = {
        "core.calls": len(select("core.", True)),
        "core.result_bits": work("core."),
        "core.busy_s": busy_s("core."),
        "core.call_p50_us": median_us("core."),
        "oracle.busy_s": busy_s("oracle."),
        "oracle.subsets_listed": work("oracle."),
        "budget.refusals": sum(o["refused"] for o in counted),
        "budget.false_refusals": sum(o["false_refusal"] for o in counted),
        "loopnest.parse_s": busy_s("loopnest.parse"),
        "loopnest.lines_parsed": work("loopnest.parse"),
        "loopnest.parse_lines_per_s": rate(work("loopnest.parse", False), "loopnest.parse"),
        "loopnest.analyze_s": busy_s("loopnest.analyze"),
        "loopnest.simulate_s": busy_s("loopnest.simulate"),
        "loopnest.simulate_entries": work("loopnest.simulate"),
        "loopnest.entries_per_s": rate(work("loopnest.simulate", False), "loopnest.simulate"),
        "fractal.build_s": busy_s("fractal.build"),
        "fractal.cells": work("fractal.build"),
        "fractal.build_ns_per_cell": ns_per(work("fractal.build", False), "fractal.build"),
        "fractal.render_ascii_s": busy_s("fractal.render_ascii"),
        "fractal.render_svg_s": busy_s("fractal.render_svg"),
        "fractal.svg_ns_per_cell": ns_per(svg_cells, "fractal.render_svg"),
        "fractal.report_s": busy_s("fractal.surface_report"),
        "fractal.output_bytes": work("fractal.render_"),
        "fractal.peak_bytes_per_cell": peak_bytes_per_cell() if args.workload == "figures" else 0.0,
        "cli.process_ms": median_us("cli.process") / 1e3,
        "cli.output_bytes": work("cli.process"),
        "cli.exit_mismatches": sum(o["exit_mismatch"] for o in counted),
        "trace_overhead_ratio": traced.ops_per_s / untraced.ops_per_s,
        "failed_ratio": sum(bool(o["failure"]) for o in counted) / len(counted),
    }
    if args.workload == "cli":
        tracer.op_id = None
        main = calls["cli.main"]
        tracing.main_in_process(["eval", "1", "1"])  # the first call pays the import
        for op in ops:
            main(op.argv)
        metrics["cli.main_ms"] = median_us("cli.main") / 1e3
    else:
        metrics["cli.main_ms"] = 0.0
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = startup_ms(args.root)
    write_spans(args, spans)
    return metrics, traced


def write_spans(args, spans: list[tuple]) -> None:
    """All spans of the traced phase, one CSV row each, once the run is over."""
    import csv
    import gzip

    path = os.path.join(args.root, "perfbench", "out", f"{args.workload}-seed{args.seed}-spans.csv.gz")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
        rows = csv.writer(handle)
        rows.writerow(("span", "parent", "pass", "op", "name", "start_ns", "end_ns", "work"))
        for span_id, parent, op_id, name, start, end, work in spans:
            rows.writerow((span_id, parent, *(op_id or ("", "")), name, start, end, work))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spawned-at", type=int, required=True, help="time.monotonic_ns() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops, probes, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # A traced run splits its time between an untraced and a traced phase.
    untraced = Phase(ops, args.seconds / 2 if args.trace else args.seconds)
    result = {"end_to_end": end_to_end(untraced, setup_s, args.workload)}

    probe_outcomes = []
    for op in probes:
        try:
            out = op.run()
        except Exception as exc:  # a probe's check judges what it raised
            out = exc
        probe_outcomes.append(outcome(op, out))

    phases = [untraced]
    if args.trace:
        result["per_layer"], traced = per_layer(args, ops, probe_outcomes, untraced)
        phases.append(traced)
    result["attempted"] = sum(len(p.latencies) for p in phases)
    result["failures"] = [f for p in phases for f in p.failures]
    result["probes"] = [{"name": o["name"], "failure": o["failure"]} for o in probe_outcomes]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
