"""Entry-point tables for the workloads, and the spans of the traced run.

A workload reaches the package only through an entry-point table.  The
untraced table holds the package's own functions, so an untraced call pays
nothing extra.  The traced table wraps each of them in the benchmark's own
code to record one span per call; nothing inside the package is patched.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import time
from functools import partial
from operator import attrgetter

# A CLI process that hangs fails its operation instead of hanging the run.
CLI_TIMEOUT_S = 60


def _bits(args, result) -> int:
    if isinstance(result, int):
        return result.bit_length()
    return sum(value.bit_length() for value in result)


def _cli_bytes(args, result) -> int:
    return len(result.stdout) + len(result.stderr)


# Work done by one call, as the benchmark counts it at the call site.
WORK = {
    "core.termirial": _bits,
    "core.termirial_p": _bits,
    "core.binomial": _bits,
    "core.pascal_check": _bits,
    "core.convolution_terms": _bits,
    "oracle.subsets": lambda args, result: len(result),
    "oracle.decompose_by_leading": lambda args, result: sum(count for _, count in result.groups),
    "loopnest.parse": lambda args, result: len(args[0].splitlines()),
    "loopnest.simulate": lambda args, result: result,
    "fractal.build": lambda args, result: math.comb(args[0] + args[1], args[1] + 1),
    "fractal.render_ascii": lambda args, result: len(result.encode()),
    "fractal.render_svg": lambda args, result: len(result.encode()),
    "cli.process": _cli_bytes,
}


def cli_env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def run_cli(root: str, argv: list[str]) -> subprocess.CompletedProcess:
    """One `python -m termirial` process, run to completion."""
    return subprocess.run(
        [sys.executable, "-m", "termirial", *argv],
        cwd=root,
        env=cli_env(root),
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )


def main_in_process(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)` in this interpreter, with stdout and stderr captured."""
    from termirial import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on bad usage
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def entry_points(root: str) -> dict:
    """The package entry points the workloads call, keyed by layer.name."""
    from termirial import core, fractal, loopnest, oracle

    return {
        "core.termirial": core.termirial,
        "core.termirial_p": core.termirial_p,
        "core.binomial": core.binomial,
        "core.pascal_check": core.pascal_check,
        "core.convolution_terms": core.convolution_terms,
        "oracle.nested_sum": oracle.nested_sum,
        "oracle.subsets": oracle.subsets,
        "oracle.decompose_by_leading": oracle.decompose_by_leading,
        "loopnest.parse": loopnest.parse,
        "loopnest.render": loopnest.render,
        "loopnest.analyze": loopnest.analyze,
        "loopnest.simulate": loopnest.simulate,
        "fractal.build": fractal.build,
        "fractal.width": attrgetter("width"),
        "fractal.height": attrgetter("height"),
        "fractal.render_ascii": partial(fractal.render, fmt="ascii"),
        "fractal.render_svg": partial(fractal.render, fmt="svg"),
        "fractal.surface_report": fractal.surface_report,
        "cli.process": partial(run_cli, root),
        "cli.main": main_in_process,
    }


class Tracer:
    """Spans kept in memory: (id, parent id, op id, name, start ns, end ns, work)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = None
        self._ids = itertools.count()
        self._stack = [None]

    def wrap(self, name: str, fn, work=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, parent, self.op_id, name, start, clock(), 0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans.append((span_id, parent, self.op_id, name, start, end, work(args, result) if work else 0))
            return result

        return traced

    def traced_entry_points(self, calls: dict) -> dict:
        return {name: self.wrap(name, fn, WORK.get(name)) for name, fn in calls.items()}


def self_times(spans: list[tuple]) -> dict:
    """Span id -> its duration minus the time its child spans cover."""
    own = {span[0]: span[5] - span[4] for span in spans}
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
