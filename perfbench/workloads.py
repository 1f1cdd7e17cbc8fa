"""The three workloads: seeded lists of operations, each with its output check.

An operation is one closed-loop call into the package (or one `python -m
termirial` process): `run` is the timed part, `check` compares its output
with `reference` afterwards, outside the timed interval.  A workload draws
its inputs once from the seed, and every pass runs the same list.

Each workload is built from cost classes.  The seed draws the inputs inside
a class (sizes within a percent or two, shapes of equal cost, names, order),
so different seeds give different inputs at nearly the same cost.  Each
workload also has as many operations cheaper than its middle class as
dearer ones, so its median operation falls inside that middle class, and
its dearest class holds enough operations a run for the tail percentile to
fall inside it.  Operations run in the order listed, whatever the seed, so
that what ran before an operation does not change with the seed.  That keeps
medians and tails comparable across seeds.

`probes` are calls that hit known defects of the package: a sum 5,000
levels deep, a 3,000-deep nest, and budget refusals of work that fits.  They run once per
run, after the timed phase, and are reported by name; they stay out of the
timed stream so that a defect shows as a named failure, not as noise in a
latency.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

import reference as ref

WORKLOADS = ("library", "figures", "cli")

STEP_BUDGET = 10**8
CELL_BUDGET = 10**7
# Deep enough to pass any recursion limit a default interpreter allows.
PROBE_DEPTH = 3000
PROBE_SUM_ORDER = 5000


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct
    svg_cells: int = 0  # cells this op renders as SVG
    exits: tuple[int, ...] = (0,)  # exit codes a CLI op may end with
    argv: tuple[str, ...] = ()  # a CLI op's arguments; empty for an in-process op


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:60]}... ({len(text)} chars)"


def _failure(out) -> str | None:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {_short(str(out))}"
    return None


def expect(reference: Callable[[], object], compare=None):
    """Check that an output equals a reference value, computed once on first use."""
    memo = []

    def check(out):
        failed = _failure(out)
        if failed:
            return failed
        if not memo:
            memo.append(reference())
        if compare is not None:
            return compare(out, memo[0])
        return None if out == memo[0] else f"returned {_short(out)}, expected {_short(memo[0])}"

    return check


def budgeted(reference: Callable[[], object], exact_work: int, budget: int):
    """A value equal to the reference, or a refusal when the exact work exceeds the budget."""
    from termirial import BudgetExceededError

    check_value = expect(reference)

    def check(out):
        if isinstance(out, BudgetExceededError):
            if exact_work > budget:
                return None
            return f"false refusal: exact work {exact_work} fits budget {budget}"
        return check_value(out)

    return check


def deep(exact_value: int):
    """The value, or a typed error that bounds the depth; never a RecursionError."""
    from termirial.loopnest import LoopNestError

    check_value = budgeted(lambda: exact_value, 1, STEP_BUDGET)

    def check(out):
        return None if isinstance(out, (ValueError, LoopNestError)) else check_value(out)

    return check


def is_refusal(op: Op, out) -> bool:
    if op.argv:
        return not isinstance(out, BaseException) and out.returncode == 3
    from termirial import BudgetExceededError

    return isinstance(out, BudgetExceededError)


def _jitter(rng: random.Random, value: int, rel: float) -> int:
    return max(1, round(value * (1 + rng.uniform(-rel, rel))))


def _conv_reference(n: int, m: int, p: int) -> list[int]:
    return [ref.termirial(n, i) * ref.termirial(m, p - i - 1) for i in range(-1, p + 1)]


# ---------------------------------------------------------------- library: kernel


def _bigorder(rng: random.Random, calls: dict):
    """Kernel calls at orders 10^3 to 10^4 and n up to 10^6: (cheap, middle, dear)."""
    tp, binom = calls["core.termirial_p"], calls["core.binomial"]
    pascal, conv = calls["core.pascal_check"], calls["core.convolution_terms"]

    def termirial_p(n0, p0):
        n, p = _jitter(rng, n0, 0.1), _jitter(rng, p0, 0.01)
        return Op(f"termirial_p({n}, {p})", partial(tp, n, p), expect(partial(ref.termirial, n, p)))

    def binomial(n0, k0):
        n, k = _jitter(rng, n0, 0.1), _jitter(rng, k0, 0.01)
        return Op(f"binomial({n}, {k})", partial(binom, n, k), expect(partial(math.comb, n, k)))

    def pascal_check(n0, p0):
        n, p = _jitter(rng, n0, 0.1), _jitter(rng, p0, 0.01)
        value = partial(ref.termirial, n + 1, p + 1)
        return Op(f"pascal_check({n}, {p})", partial(pascal, n, p), expect(lambda: (value(),) * 2))

    def convolution_terms(n0, p0):
        n, m, p = _jitter(rng, n0, 0.1), _jitter(rng, n0, 0.1), _jitter(rng, p0, 0.01)
        reference = partial(_conv_reference, n, m, p)
        return Op(f"convolution_terms({n}, {m}, {p})", partial(conv, n, m, p), expect(reference))

    # Eight cheap calls (a few ms), four in the middle (about 12 ms) and eight
    # dear ones (30 ms to 0.5 s), as timed on a 2-CPU Xeon.
    cheap = [(termirial_p, 10**6, 1000), (binomial, 10**6, 1000), (pascal_check, 10**6, 1000), (convolution_terms, 10**6, 100)] * 2
    middle = [(termirial_p, 10**5, 3000), (binomial, 10**5, 3000)] * 2
    dear = [
        (pascal_check, 10**5, 3000),
        (pascal_check, 10**5, 3000),
        (convolution_terms, 10**5, 300),
        (termirial_p, 10**4, 10**4),
        (termirial_p, 10**6, 10**4),
        (binomial, 10**6, 10**4),
        (pascal_check, 10**6, 10**4),
        (convolution_terms, 10**3, 1000),
    ]
    return tuple([make(n, p) for make, n, p in group] for group in (cheap, middle, dear))


# ---------------------------------------------------------------- library: brute force

def _pascal(c):
    pascal = c["core.pascal_check"]
    return lambda n, p: pascal(n, p)


def _newton(c):
    conv, tp = c["core.convolution_terms"], c["core.termirial_p"]
    return lambda n, m, p: (conv(n, m, p), tp(n + m, p))


def _split1(c):
    conv, t = c["core.convolution_terms"], c["core.termirial"]
    return lambda n, m: (t(n + m), t(n), t(m), conv(n, m, 1))


def _split2(c):
    conv, t, tp = c["core.convolution_terms"], c["core.termirial"], c["core.termirial_p"]
    return lambda n, m: (tp(n + m, 2), tp(n, 2), t(m), t(n), tp(m, 2), conv(n, m, 2))


def _recurrence(c):
    tp = c["core.termirial_p"]
    return lambda n, p: (tp(n, p), [tp(k, p - 1) for k in range(1, n + 1)])


def _closedform(c):
    tp, binom = c["core.termirial_p"], c["core.binomial"]
    return lambda n, p: (tp(n, p), binom(n + p, p + 1))


# The `check` subcommand's identities over its default ranges, as core calls:
# identity -> (variables, default ranges, the calls for one tuple).
SWEEPS = {
    "pascal": ("np", ((1, 50), (-1, 10)), _pascal),
    "newton": ("nmp", ((1, 15), (1, 15), (-1, 7)), _newton),
    "split1": ("nm", ((1, 50), (1, 50)), _split1),
    "split2": ("nm", ((1, 50), (1, 50)), _split2),
    "recurrence": ("np", ((1, 30), (0, 6)), _recurrence),
    "closedform": ("np", ((1, 30), (-1, 8)), _closedform),
}

SWEEP_REFERENCES = {
    "pascal": lambda n, p: (ref.termirial(n + 1, p + 1),) * 2,
    "newton": lambda n, m, p: (_conv_reference(n, m, p), ref.termirial(n + m, p)),
    "split1": lambda n, m: (
        ref.termirial(n + m, 1),
        ref.termirial(n, 1),
        ref.termirial(m, 1),
        [ref.termirial(m, 1), n * m, ref.termirial(n, 1)],
    ),
    "split2": lambda n, m: (
        ref.termirial(n + m, 2),
        ref.termirial(n, 2),
        ref.termirial(m, 1),
        ref.termirial(n, 1),
        ref.termirial(m, 2),
        _conv_reference(n, m, 2),
    ),
    "recurrence": lambda n, p: (ref.termirial(n, p), [ref.termirial(k, p - 1) for k in range(1, n + 1)]),
    "closedform": lambda n, p: (ref.termirial(n, p),) * 2,
}


def _sweep_op(calls: dict, *identities: str) -> Op:
    """One operation that sweeps each identity over its default ranges."""
    sweeps = []
    for identity in identities:
        _, ranges, bind = SWEEPS[identity]
        tuples = list(product(*(range(lo, hi + 1) for lo, hi in ranges)))
        sweeps.append((bind(calls), tuples, SWEEP_REFERENCES[identity]))
    count = sum(len(tuples) for _, tuples, _ in sweeps)

    def run():
        return [[one(*t) for t in tuples] for one, tuples, _ in sweeps]

    def reference():
        return [[expected(*t) for t in tuples] for _, tuples, expected in sweeps]

    def compare(out, want):
        if [len(got) for got in out] != [len(ok) for ok in want]:
            return "a sweep returned the wrong number of tuples"
        bad = [t for (_, tuples, _), got, ok in zip(sweeps, out, want) for t, g, o in zip(tuples, got, ok) if g != o]
        return f"{len(bad)} of {count} tuples wrong, first {bad[:1]}" if bad else None

    return Op(f"check {'+'.join(identities)} sweep ({count} tuples)", run, expect(reference, compare))


def expect_listing(check_count, n: int, p: int):
    """A refusal that `check_count` accepts, or every p-subset of 1..n in lexicographic order."""

    def check(out):
        if isinstance(out, BaseException):
            return check_count(out)
        return check_count(len(out)) or _listing_order(out, n, p)

    return check


def _listing_order(out, n: int, p: int) -> str | None:
    if any(len(s) != p or list(s) != sorted(set(s)) or not (1 <= s[0] and s[-1] <= n) for s in out):
        return "a listed subset is not an ascending p-subset of 1..n"
    if any(a >= b for a, b in zip(out, out[1:])):
        return "subsets are not in strictly increasing lexicographic order"
    return None


def _nest_source(rng: random.Random, depth: int, n: int, param: str = "n") -> tuple[str, list[str]]:
    """Chain-nest text with seeded index names, keyword case and comments."""
    names = [f"{rng.choice('ijkxyz')}{i}" for i in range(depth)]
    lines = ["# chain nest", f"{param} = {n}"]
    bound = param
    for index in names:
        keyword = rng.choice(("for", "FOR", "For"))
        comment = "  # inner" if rng.random() < 0.2 else ""
        lines.append(f"{keyword} {index} = 1 to {bound}{comment}")
        bound = index
    return "\n".join(lines) + "\n", names


def _nest_op(calls: dict, source: str, depth: int, n: int, names: list[str], simulate: bool) -> Op:
    parse, render, analyze, sim = (
        calls["loopnest.parse"],
        calls["loopnest.render"],
        calls["loopnest.analyze"],
        calls["loopnest.simulate"],
    )

    def run():
        prog = parse(source)
        again = parse(render(prog))
        analysis = analyze(prog)
        entries = sim(prog, n) if simulate else None
        return prog, again, analysis, entries

    def check(out):
        failed = _failure(out)
        if failed:
            return failed
        prog, again, analysis, entries = out
        if again != prog:
            return "parse(render(prog)) != prog"
        if prog.depth != depth or prog.param_value != n or [loop.index for loop in prog.loops] != names:
            return f"parsed depth {prog.depth}, n {prog.param_value}; expected {depth}, {n}"
        if [loop.bound for loop in prog.loops] != [prog.param_name, *names[:-1]]:
            return "parsed bounds do not form the chain"
        count = math.comb(n + depth - 1, depth)
        if analysis.exact_count != count or analysis.depth != depth:
            return f"analysis count {analysis.exact_count}, expected {count}"
        if simulate and entries != count:
            return f"simulated {entries} entries, expected {count}"
        return None

    label = "parse/render/analyze" + ("/simulate" if simulate else "")
    return Op(f"loopnest {label} depth {depth}, n = {n}", run, check)


def _bruteforce(rng: random.Random, calls: dict):
    """The brute-force verification path: (cheap, dear)."""
    nested, subsets, decompose = calls["oracle.nested_sum"], calls["oracle.subsets"], calls["oracle.decompose_by_leading"]

    def nested_sum(n, p, budget=STEP_BUDGET):
        label = f"nested_sum({n}, {p}" + ("" if budget == STEP_BUDGET else f", budget={budget}") + ")"
        check = budgeted(partial(ref.termirial, n, p), ref.termirial(n, p), budget)
        return Op(label, partial(nested, n, p, budget=budget), check)

    def listing(n, p, budget=STEP_BUDGET):
        label = f"subsets({n}, {p}" + ("" if budget == STEP_BUDGET else f", budget={budget}") + ")"
        check = budgeted(partial(math.comb, n, p), math.comb(n, p), budget)
        return Op(label, partial(subsets, n, p, budget=budget), expect_listing(check, n, p))

    def decomposition(n, p):
        groups = tuple((s, math.comb(n - s, p - 1)) for s in range(1, n - p + 2))
        check = expect(lambda: groups, lambda out, want: None if out.groups == want else f"groups {_short(out.groups)}")
        return Op(f"decompose_by_leading({n}, {p})", partial(decompose, n, p), check)

    def nest(depth, n, simulate=True):
        source, names = _nest_source(rng, depth, n)
        return _nest_op(calls, source, depth, n, names, simulate)

    small = [(n, p) for n in range(12, 17) for p in range(2, n - 1) if 1000 <= math.comb(n, p) <= 3000]
    large = [(20, 9), (20, 10), (20, 11)]
    # Budgets below or above both n**p and the exact work, so that projecting
    # either way gives the same outcome: a refusal, or the value.
    n, m = rng.randint(38, 42), rng.randint(18, 22)
    refused, tight = min(n**4, ref.termirial(n, 4)) // 4, max(m**4, ref.termirial(m, 4))
    listed = rng.choice(small)
    # Thirteen cheap operations (under 5 ms) and thirteen dear ones (30 ms to
    # 0.5 s), as timed on a 2-CPU Xeon; the identity sweeps that take 10 to
    # 25 ms each run as one operation, so that none lands in the middle
    # class.  Every default-budget call has both n**p and its exact work
    # within the budget.
    cheap = [
        nested_sum(n, 4, budget=refused),
        listing(*listed, budget=math.comb(*listed) // 2),
        nested_sum(m, 4, budget=tight),
        nested_sum(rng.randint(390, 410), 2),
        nested_sum(rng.randint(85, 95), 3),
        listing(*rng.choice(small)),
        decomposition(*rng.choice(small)),
        nest(1, rng.randint(55, 65)),
        nest(2, rng.randint(55, 65)),
        nest(3, rng.randint(55, 65)),
        *(_sweep_op(calls, identity) for identity in ("closedform", "pascal", "recurrence")),
    ]
    dear = [
        _sweep_op(calls, "split1", "newton", "split2"),
        nested_sum(rng.randint(69, 71), 4),
        nested_sum(36, 5),
        nested_sum(38, 5),
        nested_sum(21, 6),
        *(listing(*shape) for shape in rng.sample(large, 3)),
        *(decomposition(*shape) for shape in rng.sample(large, 2)),
        nest(4, rng.randint(74, 76)),
        nest(5, 60),
        nest(rng.randint(1200, 1600), 60, simulate=False),
    ]
    return cheap, dear


def _bruteforce_probes(calls: dict) -> list[Op]:
    nested = calls["oracle.nested_sum"]
    source, _ = _nest_source(random.Random(0), PROBE_DEPTH, 1)
    parse, sim = calls["loopnest.parse"], calls["loopnest.simulate"]
    return [
        Op(f"oracle.nested_sum(1, {PROBE_SUM_ORDER})", partial(nested, 1, PROBE_SUM_ORDER), deep(1)),
        Op(f"loopnest.simulate(depth {PROBE_DEPTH}, n = 1)", lambda: sim(parse(source), 1), deep(1)),
        Op("oracle.nested_sum(6, 6, budget=10000)", partial(nested, 6, 6, budget=10**4), budgeted(lambda: 792, 792, 10**4)),
    ]


def library(rng: random.Random, calls: dict, root: str):
    """Kernel calls at large orders around the brute-force verification path.

    The median falls in the kernel's middle class; the dearest class holds
    the two 0.4 s kernel calls and the 0.5 s depth-5 simulation.
    """
    big_cheap, middle, big_dear = _bigorder(rng, calls)
    brute_cheap, brute_dear = _bruteforce(rng, calls)
    return big_cheap + brute_cheap + middle + big_dear + brute_dear, _bruteforce_probes(calls)


# ---------------------------------------------------------------- figures


def _figure_shape(rng: random.Random, target: int, orders: tuple[int, ...], tolerance: float = 0.03) -> tuple[int, int]:
    """A seeded (n, p), p in `orders`, whose cell count is within `tolerance` of `target`."""
    shapes = []
    for p in orders:
        n = 2
        while ref.termirial(n, p) <= (1 + tolerance) * target:
            if ref.termirial(n, p) >= (1 - tolerance) * target:
                shapes.append((n, p))
            n += 1
    return rng.choice(shapes)


def _figure_op(calls: dict, n: int, p: int, svg: bool) -> Op:
    build, width, height = calls["fractal.build"], calls["fractal.width"], calls["fractal.height"]
    ascii_, svg_ = calls["fractal.render_ascii"], calls["fractal.render_svg"]

    def run():
        fig = build(n, p, budget=CELL_BUDGET)
        return width(fig), height(fig), ascii_(fig), svg_(fig) if svg else None

    def check(out):
        failed = _failure(out)
        if failed:
            return failed
        w, h, text, picture = out
        if w != n or h != ref.figure_height(n, p):
            return f"figure is {w} x {h}, expected {n} x {ref.figure_height(n, p)}"
        return ref.check_ascii(text, n, p) or (ref.check_svg(picture, n, p) if svg else None)

    cells = ref.termirial(n, p)
    return Op(f"figure ({n}, {p}), {cells} cells{', svg' if svg else ''}", run, check, svg_cells=cells if svg else 0)


def _report_op(calls: dict, n: int, p: int) -> Op:
    report = calls["fractal.surface_report"]

    def check(out):
        return _failure(out) or ref.check_report(out, n, p, CELL_BUDGET)

    kind = "measured" if ref.termirial(n, p) <= CELL_BUDGET else "closed form"
    return Op(f"surface_report({n}, {p}), {kind}", partial(report, n, p, budget=CELL_BUDGET), check)


# The largest figure; it sets the workload's peak memory.
ANCHOR_FIGURE = (50, 3)


def figures(rng: random.Random, calls: dict, root: str):
    # SVG only up to a few thousand cells: the seed's SVG path is quadratic.
    # ASCII cost follows width x height and build cost follows the order, so
    # the dearer classes keep one order.  Eight cheap operations (under 25 ms),
    # eight 990-cell SVG figures in the middle (about 60 ms) and eight dear
    # ones (0.1 to 1.4 s), as timed on a 2-CPU Xeon.  The largest figure runs
    # twice a pass, so that the tail falls inside its class.  A pass runs one
    # dear, one middle and one cheap operation in turn, so the middle class,
    # which sets the median, is timed at eight moments spread over each pass
    # rather than in one burst, and the host's second-to-second drift averages
    # out of the median.
    cheap = [
        _report_op(calls, 4, 500),
        _report_op(calls, rng.randint(200, 1000), rng.randint(5, 9)),
        _report_op(calls, rng.randint(200, 1000), rng.randint(5, 9)),
        _report_op(calls, *_figure_shape(rng, 5000, (2, 3))),
        _figure_op(calls, *_figure_shape(rng, 30, (1, 2, 3, 4), 0.2), svg=True),
        _figure_op(calls, *_figure_shape(rng, 100, (1, 2, 3, 4), 0.1), svg=True),
        _figure_op(calls, *_figure_shape(rng, 300, (1, 2, 3, 4), 0.1), svg=True),
        _figure_op(calls, *_figure_shape(rng, 10_000, (2,), 0.08), svg=False),
    ]
    middle = [_figure_op(calls, 44, 1, svg=True) for _ in range(8)]
    anchor = _figure_op(calls, *ANCHOR_FIGURE, svg=False)
    dear = []
    for _ in range(2):
        dear += [
            anchor,
            _figure_op(calls, *_figure_shape(rng, 2500, (1,)), svg=True),
            _figure_op(calls, *_figure_shape(rng, 50_000, (2,)), svg=False),
            _figure_op(calls, *_figure_shape(rng, 50_000, (2,)), svg=False),
        ]
    return [op for trio in zip(dear, middle, cheap) for op in trio], []


# ---------------------------------------------------------------- cli


# Loop files for the CLI, relative to the checkout, so outputs that name them repeat.
WORKDIR = os.path.join("perfbench", "out", "work")


def _cli_op(calls: dict, argv: list[str], exits: int | tuple[int, ...], check_output=None) -> Op:
    """A `python -m termirial` process: exit code, no traceback, then its output on exit 0."""
    process = calls["cli.process"]
    allowed = exits if isinstance(exits, tuple) else (exits,)

    def check(out):
        failed = _failure(out)
        if failed:
            return failed
        last = out.stderr.decode().strip().rsplit("\n", 1)[-1]
        if b"Traceback" in out.stderr:
            return f"exit {out.returncode} with a traceback ending {_short(last)}"
        if out.returncode not in allowed:
            return f"exit {out.returncode}, expected {exits}: {_short(last)}"
        if out.returncode == 0 and check_output:
            return check_output(out.stdout.decode())
        return None

    return Op("termirial " + " ".join(argv), partial(process, argv), check, exits=allowed, argv=tuple(argv))


def _json_result(checks: dict):
    import json

    def check(stdout: str):
        result = json.loads(stdout)["result"]
        for key, want in checks.items():
            if result.get(key) != want:
                return f"result[{key!r}] = {_short(result.get(key))}, expected {_short(want)}"
        return None

    return check


def _first_line(want: str):
    def check(stdout: str):
        first = stdout.split("\n", 1)[0]
        return None if first == want else f"first line {first!r}, expected {want!r}"

    return check


def _line(prefix: str, want: str):
    def check(stdout: str):
        found = [line for line in stdout.splitlines() if line.startswith(prefix)]
        return None if found == [prefix + want] else f"{prefix!r} lines {found}, expected {[prefix + want]}"

    return check


def _grey_count(cells: int):
    return lambda stdout: None if stdout.count("#") == cells else f"{stdout.count('#')} grey cells, expected {cells}"


def _write(root: str, path: str, text: str) -> str:
    full = os.path.join(root, path)
    os.makedirs(os.path.dirname(full), exist_ok=True)
    with open(full, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def cli(rng: random.Random, calls: dict, root: str):
    ops = []
    for _ in range(2):
        n, p = rng.randint(1, 10**4), rng.randint(0, 40)
        ops.append(_cli_op(calls, ["eval", str(n), str(p)], 0, _first_line(str(ref.termirial(n, p)))))
        n, p = rng.randint(1, 10**4), rng.randint(-1, 40)
        ops.append(_cli_op(calls, ["eval", str(n), str(p), "--json"], 0, _json_result({"value": ref.termirial(n, p)})))
    n, p = rng.randint(5, 20), rng.randint(1, 3)
    value = ref.termirial(n, p)
    ops.append(_cli_op(calls, ["eval", str(n), str(p), "--oracle", "--json"], 0, _json_result({"value": value, "oracle_value": value})))

    for identity in rng.sample(sorted(SWEEPS), 2):
        variables, ranges, _ = SWEEPS[identity]
        argv = ["check", identity]
        total = 1
        for var, (lo, _) in zip(variables, ranges):
            start = rng.randint(lo, lo + 2)
            stop = start + rng.randint(1, 4)
            argv.append(f"--{var}={start}..{stop}")
            total *= stop - start + 1
        if rng.random() < 0.5:
            ops.append(_cli_op(calls, argv + ["--json"], 0, _json_result({"checked": total, "failures": 0})))
        else:
            summary = f": {total} checks, all pass"
            ops.append(_cli_op(calls, argv, 0, lambda out, s=summary: None if out.rstrip().endswith(s) else "sweep did not pass"))

    n = rng.randint(5, 10)
    p = rng.randint(1, n)
    groups = [[s, math.comb(n - s, p - 1)] for s in range(1, n - p + 2)]
    ops.append(_cli_op(calls, ["enum", str(n), str(p), "--json"], 0, _json_result({"binomial": math.comb(n, p), "groups": groups})))
    n = rng.randint(4, 7)
    p = rng.randint(1, n)
    ops.append(
        _cli_op(
            calls,
            ["enum", str(n), str(p), "--subsets"],
            0,
            lambda out, n=n, p=p: _first_line(f"C({n}, {p}) = {math.comb(n, p)}")(out)
            or (None if sum(line.startswith("{") for line in out.splitlines()) == math.comb(n, p) else "wrong subset count"),
        )
    )

    for i in range(3):
        depth, n = rng.randint(1, 4), rng.randint(2, 12)
        source, _ = _nest_source(rng, depth, n, param=rng.choice(("n", "size", "N")))
        path = _write(root, os.path.join(WORKDIR, f"nest{i}.loop"), source)
        count = math.comb(n + depth - 1, depth)
        if i == 0:
            ops.append(_cli_op(calls, ["loops", path], 0, _line("count: ", str(count))))
        else:
            ops.append(_cli_op(calls, ["loops", path, "--simulate", "--json"], 0, _json_result({"exact_count": count, "simulated": count})))

    for fmt_flags, svg in (([], False), (["--json"], False), (["--format", "svg", "--json"], True)):
        n, p = rng.randint(2, 6), rng.randint(1, 3)
        cells = ref.termirial(n, p)
        if svg:
            check = _json_result({"cells": cells, "width": n, "height": ref.figure_height(n, p)})
            check = (lambda c: lambda out: c(out) or (None if out.count("<rect") == cells else "wrong rect count"))(check)
        elif fmt_flags:
            check = _json_result({"cells": cells, "width": n, "height": ref.figure_height(n, p)})
        else:
            check = _grey_count(cells)
        ops.append(_cli_op(calls, ["fractal", str(n), str(p), *fmt_flags], 0, check))
    n, p = rng.randint(2, 6), rng.randint(1, 3)
    ops.append(_cli_op(calls, ["fractal", str(n), str(p), "--report"], 0, _line("ratio: ", str(ref.surface_ratio(n, p)))))
    n, p = rng.randint(100, 1000), rng.randint(5, 400)
    ops.append(_cli_op(calls, ["fractal", str(n), str(p), "--report-only", "--json"], 0, _json_result({"ratio": str(ref.surface_ratio(n, p)), "measured": False})))

    # Expected error exits: usage 2, parse error 2, budget 3.
    n = rng.randint(2, 8)
    ops.append(_cli_op(calls, ["enum", str(n), str(n + rng.randint(1, 5))], 2))
    ops.append(_cli_op(calls, ["eval", str(rng.randint(1, 99))], 2))
    bad = rng.choice(
        (
            "for i = 1 to n\nfor j = 1 to k\n",
            "for i = 1 to n\nfor j = 1 to n\n",
            "for i = 1 to n\nfor i = 1 to i\n",
            "for i = 2 to n\n",
            "n = 5\nfor i = 1 to n\nfor j = 1 to i;\n",
        )
    )
    path = _write(root, os.path.join(WORKDIR, "bad.loop"), bad)
    ops.append(_cli_op(calls, ["loops", path], 2, None))
    n, p = rng.randint(20, 40), rng.randint(5, 7)
    ops.append(_cli_op(calls, ["eval", str(n), str(p), "--oracle", "--budget", str(rng.randint(10, 1000))], 3))
    n, p = rng.randint(10, 20), 3
    ops.append(_cli_op(calls, ["fractal", str(n), str(p), "--budget", str(ref.termirial(n, p) - 1)], 3))

    deep, _ = _nest_source(random.Random(0), PROBE_DEPTH, 1)
    deep_path = _write(root, os.path.join(WORKDIR, "deep.loop"), deep)
    probes = [
        # Exit 2 is a typed error that bounds the depth.
        _cli_op(calls, ["loops", deep_path, "--simulate", "--json"], (0, 2), _json_result({"simulated": 1})),
        _cli_op(calls, ["eval", "6", "6", "--oracle", "--budget", "10000", "--json"], 0, _json_result({"oracle_value": 792})),
    ]
    return ops, probes


def make(workload: str, seed: int, calls: dict, root: str):
    """(operations, probes) of one workload, drawn from its seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"library": library, "figures": figures, "cli": cli}[workload](rng, calls, root)
