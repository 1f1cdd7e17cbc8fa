"""Command-line front end: eval, check, enum, loops, and fractal subcommands.

Exit codes: 0 success or all checks pass, 1 an identity check failed
(that means a bug, the identities are theorems), 2 bad arguments or a
parse error, 3 a work guard tripped.
"""

import argparse
import itertools
import re
import sys

from . import core
from .budget import DEFAULT_CELL_BUDGET, DEFAULT_STEP_BUDGET, BudgetExceededError, check_budget, short, value_cost

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


def _format_int(value: int, pretty: bool) -> str:
    return f"{value:,}".replace(",", " ") if pretty else str(value)


# Each handler returns (inputs, result, checks, lines): main prints the JSON
# envelope or the text lines, and exits 0 exactly when every check passes.
Outcome = tuple[dict, dict, list[dict], list[str]]


# ---------------------------------------------------------------- eval


def cmd_eval(args) -> Outcome:
    n, p = args.n, args.p
    if n < 0:
        raise UsageError("n must be >= 0")
    if p < core.MIN_ORDER:
        raise UsageError("p must be >= -1")
    if args.oracle and p < 0:
        raise UsageError("the iterated-sum oracle needs p >= 0")

    top, bottom = n + p, p + 1
    check_budget(value_cost(top, bottom), args.budget, f"termirial_p({short(n)}, {short(p)})")
    value = core.termirial_p(n, p)
    lines = [] if args.json else [_format_int(value, args.pretty), f"binomial form: C({top}, {bottom})"]
    result = {"value": value, "binomial_top": top, "binomial_bottom": bottom}
    checks: list[dict] = []
    if args.oracle:
        from . import oracle
        observed = oracle.nested_sum(n, p, budget=args.budget)
        agrees = observed == value
        verdict = "agrees" if agrees else "DISAGREES"
        lines.append(f"oracle (iterated sum): {_format_int(observed, args.pretty)} [{verdict}]")
        result["oracle_value"] = observed
        checks.append({"name": "iterated-sum oracle agrees", "pass": agrees})
    return {"n": n, "p": p, "oracle": args.oracle}, result, checks, lines


# ---------------------------------------------------------------- check
#
# A per-tuple check returns its verdict and the two sides it compared; the
# sweep turns the sides into text only for the lines it prints.  A list on
# the right is a sum of terms.

Sides = tuple[bool, int, int | str | list[int]]


def _detail(ok: bool, lhs: int, rhs: int | str | list[int]) -> str:
    rhs_text = " + ".join(map(str, rhs)) if isinstance(rhs, list) else rhs
    return f"{lhs} {'=' if ok else '!='} {rhs_text}"


def _check_pascal(n: int, p: int) -> Sides:
    lhs, rhs = core.pascal_check(n, p)
    return lhs == rhs, lhs, rhs


def _check_newton(n: int, m: int, p: int) -> Sides:
    terms = core.convolution_terms(n, m, p)
    whole = core.termirial_p(n + m, p)
    return whole == sum(terms), whole, terms


def _check_split1(n: int, m: int) -> Sides:
    whole = core.termirial(n + m)
    parts = [core.termirial(n), n * m, core.termirial(m)]
    ok = whole == sum(parts)
    # the p = 1 convolution carries the same three terms, outer ones swapped
    ok = ok and core.convolution_terms(n, m, 1) == parts[::-1]
    return ok, whole, parts


def _check_split2(n: int, m: int) -> Sides:
    whole = core.termirial_p(n + m, 2)
    parts = [
        core.termirial_p(n, 2),
        n * core.termirial(m),
        m * core.termirial(n),
        core.termirial_p(m, 2),
    ]
    ok = whole == sum(parts)
    conv = core.convolution_terms(n, m, 2)
    ok = ok and conv == [parts[3], parts[1], parts[2], parts[0]]
    return ok, whole, parts


def _check_recurrence(n: int, p: int) -> Sides:
    whole = core.termirial_p(n, p)
    total = sum(core.termirial_p(k, p - 1) for k in range(1, n + 1))
    return whole == total, whole, f"sum of {n} order-{p - 1} values"


def _check_closedform(n: int, p: int) -> Sides:
    from . import oracle
    a = core.termirial_p(n, p)
    b = oracle.termirial_product(n, p)
    return a == b, a, f"C({n + p}, {p + 1})"


_IDENTITIES = {
    # name: (variables, check, default ranges, a tuple's calls (the check and each step count one) and largest C(N, k))
    "pascal": (("n", "p"), _check_pascal, {"n": (1, 50), "p": (-1, 10)}, lambda n, p: (3, n + p + 2, p + 2)),
    "newton": (("n", "m", "p"), _check_newton, {"n": (1, 15), "m": (1, 15), "p": (-1, 7)},
               lambda n, m, p: (2 * p + 4, n + m + p, p + 1)),
    "split1": (("n", "m"), _check_split1, {"n": (1, 50), "m": (1, 50)}, lambda n, m: (8, n + m + 1, 2)),
    "split2": (("n", "m"), _check_split2, {"n": (1, 50), "m": (1, 50)}, lambda n, m: (12, n + m + 2, 3)),
    "recurrence": (("n", "p"), _check_recurrence, {"n": (1, 30), "p": (0, 6)}, lambda n, p: (n + 2, n + p, p + 1)),
    "closedform": (("n", "p"), _check_closedform, {"n": (1, 30), "p": (-1, 8)}, lambda n, p: (p + 3, n + p, p + 1)),
}


def cmd_check(args) -> Outcome:
    variables, check_fn, defaults, tuple_work = _IDENTITIES[args.identity]
    for var in ("n", "m", "p"):
        if getattr(args, var) is not None and var not in variables:
            raise UsageError(f"identity '{args.identity}' does not take --{var}")

    ranges: dict[str, tuple[int, int]] = {}
    total = 1
    for var in variables:
        lo, hi = getattr(args, var) or defaults[var]
        if lo < defaults[var][0]:  # each default range starts at its variable's least value
            raise UsageError(f"--{var} must start at {defaults[var][0]} or above for '{args.identity}'")
        ranges[var] = (lo, hi)
        total *= hi - lo + 1
    calls, top, bottom = tuple_work(*(hi for _, hi in ranges.values()))  # values grow with n, m and p: the top corner
    projected = total * calls * value_cost(top, bottom)
    check_budget(projected, args.budget, f"check {args.identity} sweep of {short(total)} tuples")

    show_each = args.each or total == 1
    lines: list[str] = []
    checks: list[dict] = []
    failures = 0
    for assigned in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges.values())):
        ok, lhs, rhs = check_fn(*assigned)
        if not ok:
            failures += 1
        if show_each or not ok:
            label = " ".join(f"{v}={x}" for v, x in zip(variables, assigned))
            checks.append({"name": f"{args.identity} {label}", "pass": ok})
            if not args.json:
                lines.append(f"{'ok' if ok else 'FAIL'} {args.identity} {label}: {_detail(ok, lhs, rhs)}")

    range_text = " ".join(f"{v}={lo}..{hi}" for v, (lo, hi) in ranges.items())
    verdict = "all pass" if failures == 0 else f"{failures} FAILED"
    lines.append(f"{args.identity}: {range_text}: {total} checks, {verdict}")
    if not show_each:
        checks.append({"name": f"{args.identity} {range_text}", "pass": failures == 0})

    inputs = {"identity": args.identity}
    inputs.update({v: f"{lo}..{hi}" for v, (lo, hi) in ranges.items()})
    return inputs, {"checked": total, "failures": failures}, checks, lines


# ---------------------------------------------------------------- enum


def cmd_enum(args) -> Outcome:
    n, p = args.n, args.p
    if n < 0:
        raise UsageError("n must be >= 0")
    if not 1 <= p <= n:
        raise UsageError("need 1 <= p <= n")

    from . import oracle
    listed = oracle.subsets(n, p, budget=args.budget) if args.subsets else []  # refused before any walk
    groups = oracle.decompose_by_leading(n, p, budget=args.budget).groups
    value = core.binomial(n, p)
    counts = [count for _, count in groups]
    total = sum(counts)
    result = {
        "binomial": value,
        "groups": groups,  # pairs, which json writes as lists
        "reading": {"n": n - p + 1, "p": p - 1},
    }
    if args.subsets:
        result["subsets"] = listed  # tuples, written as lists too
    lines = [] if args.json else [
        f"C({n}, {p}) = {_format_int(value, args.pretty)}",
        *("{" + ", ".join(map(str, s)) + "}" for s in listed),
        *(f"leading {leading}: {count}" for leading, count in groups),
        f"decomposition: {' + '.join(map(str, counts))} = {total}",
        f"termirial reading: C({n}, {p}) = termirial_p({n - p + 1}, {p - 1}) = {value}",
    ]
    checks = [{"name": "group counts sum to the binomial coefficient", "pass": total == value}]
    return {"n": n, "p": p, "subsets": args.subsets}, result, checks, lines


# ---------------------------------------------------------------- loops


def cmd_loops(args) -> Outcome:
    if args.n is not None and args.n < 0:
        raise UsageError("--n must be >= 0")
    if args.file in (None, "-"):
        source = sys.stdin.read()
    else:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    from . import loopnest
    prog = loopnest.parse(source)
    res = loopnest.analyze(prog, n=args.n, budget=args.budget)
    lines = [
        f"depth: {res.depth}",
        f"closed form: {res.termirial_text()} = {res.binomial_text()}",
    ]
    if res.exact_count is not None and not args.json:
        lines.append(f"count: {_format_int(res.exact_count, args.pretty)}")
    lines.append(f"theta: {res.theta_text()}")
    result = {
        "depth": res.depth,
        "order": res.order,
        "param": res.param_name,
        "n": res.param_value,
        "closed_form": f"{res.termirial_text()} = {res.binomial_text()}",
        "exact_count": res.exact_count,
        "theta_exponent": res.theta_exponent,
    }

    checks: list[dict] = []
    if args.simulate:
        if res.param_value is None:
            raise UsageError("--simulate needs a bound: give --n or an assignment line")
        simulated = loopnest.simulate(prog, res.param_value, budget=args.budget)
        agrees = simulated == res.exact_count
        verdict = "agrees" if agrees else "DISAGREES"
        lines.append(f"simulated: {_format_int(simulated, args.pretty)} [{verdict}]")
        result["simulated"] = simulated
        checks.append({"name": "simulator agrees with closed form", "pass": agrees})

    return {"file": args.file or "-", "n": args.n, "simulate": args.simulate}, result, checks, lines


# ---------------------------------------------------------------- fractal


def cmd_fractal(args) -> Outcome:
    n, p = args.n, args.p
    if n < 1:
        raise UsageError("n must be >= 1")
    if p < 0:
        raise UsageError("p must be >= 0")
    if (args.report or args.report_only) and p < 1:
        raise UsageError("the surface report compares order p to p-1, so p must be >= 1")

    lines: list[str] = []
    result: dict = {}
    checks: list[dict] = []

    from . import fractal
    if not args.report_only:
        fig = fractal.build(n, p, budget=args.budget)
        text = fractal.render(fig, args.format)
        result.update({"width": fig.width, "height": fig.height})
        if args.out:
            result["out"] = args.out
        else:
            lines.append(text)
            result["figure"] = text

    if args.report or args.report_only:
        report = fractal.surface_report(n, p, budget=args.budget)
        lines.append(f"ratio: {report.ratio}")
        lines.append(f"dimension estimate: {report.dimension_estimate!r}")
        lines.append(f"measured: {'yes' if report.measured else 'no (closed form only)'}")
        result["ratio"] = str(report.ratio)
        result["dimension_estimate"] = report.dimension_estimate
        result["measured"] = report.measured
        if report.measured:
            checks.append({"name": "measured ratio equals closed form", "pass": True})

    if args.json:  # after build's guard; text mode never prints these.  On the step budget: --budget counts cells
        cost = value_cost(n + p, p + 1) + value_cost(0, 0, p)  # the side is 2**p, made by a shift
        check_budget(cost, DEFAULT_STEP_BUDGET, f"cell count and side of figure ({short(n)}, {p})")
        result.update(cells=core.termirial_p(n, p), cell_side=f"1/{2**p}" if p else "1")
    if "out" in result:  # written once every guard has passed
        with open(args.out, "w", encoding="utf-8") as handle:
            print(text, file=handle)
    return {"n": n, "p": p, "format": args.format, "report": args.report or args.report_only}, result, checks, lines


# ---------------------------------------------------------------- parser


def _range_arg(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(-?\d+)(?:\.\.(-?\d+))?", text)
    if not match:
        raise argparse.ArgumentTypeError(f"expected 'a' or 'a..b', got {text!r}")
    lo = int(match.group(1))
    hi = int(match.group(2)) if match.group(2) is not None else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range {text!r} runs backwards")
    return lo, hi


_RANGE_FLAGS = {"--n", "--m", "--p"}
_NEG_VALUE_RE = re.compile(r"-\d+(\.\.-?\d+)?")


def _merge_negative_ranges(argv: list[str]) -> list[str]:
    # argparse reads "-1..7" as an option, so fold it into "--p=-1..7"
    merged: list[str] = []
    for arg in argv:
        if merged and merged[-1] in _RANGE_FLAGS and _NEG_VALUE_RE.fullmatch(arg):
            merged[-1] += "=" + arg
        else:
            merged.append(arg)
    return merged


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit one JSON object instead of plain text")
    shared.add_argument("--pretty", action="store_true", help="print large numbers with digit groups: 4 421 275")
    budget_help = f"work guard override (defaults: {DEFAULT_STEP_BUDGET} steps, {DEFAULT_CELL_BUDGET} cells)"
    shared.add_argument("--budget", type=int, metavar="N", help=budget_help)  # shared: each command sets default_budget
    n_p = argparse.ArgumentParser(add_help=False)
    n_p.add_argument("n", type=int)
    n_p.add_argument("p", type=int)

    parser = argparse.ArgumentParser(
        prog="termirial",
        description="Exact termirial (simplicial polytopic number) arithmetic, identity checks, "
        "chain loop-nest analysis, and grey-square figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_eval = sub.add_parser("eval", parents=[shared, n_p], help="evaluate the order-p termirial of n")
    p_eval.add_argument("--oracle", action="store_true", help="cross-check with the literal iterated sum (p >= 0)")
    p_eval.set_defaults(handler=cmd_eval, default_budget=DEFAULT_STEP_BUDGET)

    p_check = sub.add_parser("check", parents=[shared], help="sweep an identity over ranges")
    p_check.add_argument("identity", choices=sorted(_IDENTITIES))
    p_check.add_argument("--n", type=_range_arg, metavar="A..B")
    p_check.add_argument("--m", type=_range_arg, metavar="A..B")
    p_check.add_argument("--p", type=_range_arg, metavar="A..B")
    p_check.add_argument("--each", action="store_true", help="print one line per tuple")
    p_check.set_defaults(handler=cmd_check, default_budget=DEFAULT_STEP_BUDGET)

    p_enum = sub.add_parser("enum", parents=[shared, n_p], help="list p-subsets of {1..n} grouped by leading element")
    p_enum.add_argument("--subsets", action="store_true", help="also list every subset")
    p_enum.set_defaults(handler=cmd_enum, default_budget=DEFAULT_STEP_BUDGET)

    p_loops = sub.add_parser("loops", parents=[shared], help="analyze a chain loop-nest program")
    p_loops.add_argument("file", nargs="?", help="program file (.loop); stdin when omitted or '-'")
    p_loops.add_argument("--n", type=int, metavar="N", help="override the nest parameter")
    p_loops.add_argument("--simulate", action="store_true", help="count the body entries by brute force and compare")
    p_loops.set_defaults(handler=cmd_loops, default_budget=DEFAULT_STEP_BUDGET)

    p_fractal = sub.add_parser("fractal", parents=[shared, n_p], help="build and render the grey-square figure")
    p_fractal.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p_fractal.add_argument("--report", action="store_true", help="also print the surface ratio and dimension estimate")
    p_fractal.add_argument("--report-only", action="store_true", help="print the report without building the figure")
    p_fractal.add_argument("--out", metavar="PATH", help="write the figure to a file instead of stdout")
    p_fractal.set_defaults(handler=cmd_fractal, default_budget=DEFAULT_CELL_BUDGET)

    return parser


# The exit code of each error a run may end on, read for the first class of the error's MRO listed here.
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    BudgetExceededError: EXIT_BUDGET,
    AssertionError: EXIT_CHECK_FAILED,  # a cross-check failed; that is a bug, not bad input
    ValueError: EXIT_USAGE,  # a LoopNestError too, which also prints its kind
    OSError: EXIT_USAGE,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_merge_negative_ranges(argv))
    # Results print in full: argparse has read argv and loopnest.parse limits literals itself, so the int-to-text
    # digit cap (4,300 by default; none before 3.10.7), meant for untrusted input, is lifted until the run ends.
    cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    try:
        if cap:
            sys.set_int_max_str_digits(0)
        if args.budget is not None and args.budget < 1:
            raise UsageError("--budget must be a positive integer")
        args.budget = args.budget or args.default_budget
        inputs, result, checks, lines = args.handler(args)
        if args.json:  # printed before the digit cap comes back: a result may run past 4,300 digits
            import json
            envelope = {"command": args.command, "inputs": inputs, "result": result, "checks": checks}
            print(json.dumps(envelope, sort_keys=True))
        elif lines:
            print("\n".join(lines))
        return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED
    except tuple(_EXIT_CODES) as exc:
        print(f"error ({exc.kind}): {exc}" if hasattr(exc, "kind") else f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            print(f"run 'termirial {args.command} --help' for usage", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
