"""Command-line behavior: output shapes, JSON envelopes, exit codes."""

import importlib.util
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termirial import cli, oracle
from termirial.budget import DEFAULT_STEP_BUDGET, BudgetExceededError, value_cost
from termirial.cli import main
from termirial.loopnest import LoopSyntaxError

_EXTREMES_PATH = Path(__file__).resolve().parents[1] / "tools" / "extremes.py"
_SPEC = importlib.util.spec_from_file_location("extremes", _EXTREMES_PATH)  # tools/ is not a package
extremes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(extremes)

FOUR_LOOPS = """\
n = 100
for i = 1 to n
for j = 1 to i
for k = 1 to j
for l = 1 to k
"""


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run_cli(capsys, *argv)


def test_eval_known_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "100", "3")
    assert code == 0
    assert out.splitlines() == ["4421275", "binomial form: C(103, 4)"]


def test_eval_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "eval", "4", "1", "--oracle")
    assert code == 0
    assert out.splitlines()[0] == "10"
    assert "oracle (iterated sum): 10 [agrees]" in out


def test_eval_zero_boundary(capsys):
    code, out, _ = run_cli(capsys, "eval", "0", "0")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_eval_pretty_digit_groups(capsys):
    _, out, _ = run_cli(capsys, "eval", "100", "3", "--pretty")
    assert out.splitlines()[0] == "4 421 275"


def test_eval_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "eval", "100", "3", "--json")
    assert code == 0
    envelope = json.loads(out)
    assert list(envelope) == sorted(envelope)  # stable key order
    assert envelope["command"] == "eval"
    assert envelope["inputs"] == {"n": 100, "p": 3, "oracle": False}
    assert envelope["result"]["value"] == 4421275
    assert envelope["result"]["binomial_top"] == 103
    assert envelope["checks"] == []


def test_json_value_matches_plain_output(capsys):
    _, plain, _ = run_cli(capsys, "eval", "100", "3")
    _, enveloped, _ = run_cli(capsys, "eval", "100", "3", "--json")
    assert json.loads(enveloped)["result"]["value"] == int(plain.splitlines()[0])


def test_runs_are_byte_identical(capsys):
    for argv in (
        ["fractal", "4", "2", "--report"],
        ["eval", "12", "4", "--oracle", "--json"],
        ["check", "pascal", "--n", "1..5", "--p", "-1..3", "--each"],
    ):
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "-1", "2"],
        ["eval", "5", "-2"],
        ["eval", "3", "-1", "--oracle"],
        ["eval", "5", "2", "--budget", "0"],
        ["eval", "5", "2", "--budget", "-1"],
    ],
)
def test_eval_usage_errors(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err


def test_eval_accepts_any_order_whose_value_fits(capsys):
    # C(20005, 20001) = C(20005, 4) has 16 digits; no order cap refuses it
    expected = f"{math.comb(20005, 4)}\nbinomial form: C(20005, 20001)\n"
    assert run_cli(capsys, "eval", "5", "20000") == (0, expected, "")


def refusal(argv: list[str]) -> BudgetExceededError:
    """The BudgetExceededError a handler raises for argv, read in-process before main turns it into text."""
    args = cli.build_parser().parse_args(cli._merge_negative_ranges(argv))
    with pytest.raises(BudgetExceededError) as caught:
        args.handler(args)
    return caught.value


def test_eval_refusal_projects_the_value_cost():
    error = refusal(["eval", "100", "3", "--budget", "1"])
    assert (error.projected, error.budget) == (value_cost(103, 4), 1)
    assert str(error) == f"termirial_p(100, 3): projected {value_cost(103, 4)} exceeds budget 1"


def test_loops_refusal_projects_the_value_cost(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(FOUR_LOOPS))
    error = refusal(["loops", "--budget", "1"])
    assert (error.projected, error.budget) == (value_cost(103, 4), 1)
    assert error.what == "loop count termirial_p(100, 3)"


def test_fractal_json_refusal_projects_the_cells_and_the_side():
    # --budget counts cells, so the printed values are charged to the step budget
    error = refusal(["fractal", "1", "1000000", "--json", "--budget", "1"])
    assert error.projected == value_cost(1000001, 1000001) + value_cost(0, 0, 10**6)
    assert error.budget == DEFAULT_STEP_BUDGET


def test_eval_oracle_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, "eval", "50", "8", "--oracle")
    assert code == 3
    assert "budget" in err


needs_int_text_cap = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this interpreter has no int-to-text digit cap"
)


def exact_text(value: int) -> str:
    """str(value) past the interpreter's digit cap, lifted for this conversion alone."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(cap)


def run_past_the_cap(capsys, *argv):
    """run_cli, checking that the handler put the interpreter's digit cap back."""
    cap = sys.get_int_max_str_digits()
    result = run_cli(capsys, *argv)
    assert sys.get_int_max_str_digits() == cap
    return result


@needs_int_text_cap
def test_eval_prints_values_past_the_digit_cap(capsys):
    code, out, err = run_past_the_cap(capsys, "eval", "100000", "3000")
    assert (code, err) == (0, "")
    assert out == exact_text(math.comb(103000, 3001)) + "\nbinomial form: C(103000, 3001)\n"
    assert len(out.splitlines()[0]) == 5891  # past the default cap of 4,300


@needs_int_text_cap
def test_eval_json_past_the_digit_cap(capsys):
    code, out, _ = run_past_the_cap(capsys, "eval", "100000", "3000", "--json")
    assert code == 0
    value = out.split('"value": ')[1].split("}")[0]
    assert value == exact_text(math.comb(103000, 3001))


@needs_int_text_cap
def test_check_pascal_past_the_digit_cap(capsys):
    code, out, _ = run_past_the_cap(capsys, "check", "pascal", "--n", "100000", "--p", "3000")
    side = exact_text(math.comb(103002, 3002))
    assert code == 0
    assert out.splitlines() == [
        f"ok pascal n=100000 p=3000: {side} = {side}",
        "pascal: n=100000..100000 p=3000..3000: 1 checks, all pass",
    ]


@needs_int_text_cap
def test_fractal_cell_side_past_the_digit_cap(capsys):
    code, out, _ = run_past_the_cap(capsys, "fractal", "1", "15000", "--json")
    result = json.loads(out)["result"]
    assert code == 0
    assert (result["cells"], result["figure"]) == (1, "#")
    assert result["cell_side"] == "1/" + exact_text(2**15000)


@needs_int_text_cap
def test_loops_still_rejects_literals_past_the_digit_cap(capsys, monkeypatch):
    source = "n = " + "9" * 5000 + "\nfor i = 1 to n\n"
    cap = sys.get_int_max_str_digits()
    code, out, err = run_cli_stdin(capsys, monkeypatch, source, "loops")
    assert sys.get_int_max_str_digits() == cap
    assert (code, out) == (2, "")
    assert err == "error (syntax): line 1, column 5: integer literal of 5000 digits is too long\n"


@needs_int_text_cap
def test_digit_cap_is_restored_when_a_handler_raises(capsys):
    assert run_past_the_cap(capsys, "eval", "50", "8", "--oracle")[0] == 3


# main's exit table, one row per error class: the error, its exit code and its whole stderr
EXIT_TABLE = [
    (cli.UsageError("n must be >= 0"), 2, "error: n must be >= 0\nrun 'termirial eval --help' for usage\n"),
    (BudgetExceededError("work", 5, 1), 3, "error: work: projected 5 exceeds budget 1\n"),
    (AssertionError("sides differ"), 1, "error: sides differ\n"),
    (ValueError("bad value"), 2, "error: bad value\n"),
    (OSError("disk gone"), 2, "error: disk gone\n"),
    (FileNotFoundError(2, "No such file or directory", "x"), 2, "error: [Errno 2] No such file or directory: 'x'\n"),
    (LoopSyntaxError("expected 'to'", 3, 7), 2, "error (syntax): line 3, column 7: expected 'to'\n"),
]


@needs_int_text_cap
@pytest.mark.parametrize("error, code, stderr", EXIT_TABLE, ids=[type(row[0]).__name__ for row in EXIT_TABLE])
def test_each_error_class_has_its_exit_code_and_message(error, code, stderr, capsys, monkeypatch):
    def handler(args):
        assert sys.get_int_max_str_digits() == 0  # lifted while the handler runs
        raise error

    monkeypatch.setattr(cli, "cmd_eval", handler)
    assert run_past_the_cap(capsys, "eval", "1", "1") == (code, "", stderr)


@needs_int_text_cap
def test_errors_outside_the_exit_table_propagate_with_the_digit_cap_restored(monkeypatch):
    def handler(args):
        raise KeyError("not an exit")

    monkeypatch.setattr(cli, "cmd_eval", handler)
    cap = sys.get_int_max_str_digits()
    with pytest.raises(KeyError):
        main(["eval", "1", "1"])
    assert sys.get_int_max_str_digits() == cap


CHECK_ARGS = {
    "pascal": ["--n", "1..10", "--p", "-1..5"],
    "newton": ["--n", "1..6", "--m", "1..6", "--p", "-1..4"],
    "split1": ["--n", "1..10", "--m", "1..10"],
    "split2": ["--n", "1..10", "--m", "1..10"],
    "recurrence": ["--n", "1..10", "--p", "0..4"],
    "closedform": ["--n", "1..10", "--p", "-1..5"],
}


@pytest.mark.parametrize("identity", sorted(CHECK_ARGS))
def test_check_identity_passes(identity, capsys):
    code, out, _ = run_cli(capsys, "check", identity, *CHECK_ARGS[identity])
    assert code == 0
    assert "all pass" in out


def test_check_default_ranges(capsys):
    code, out, _ = run_cli(capsys, "check", "pascal")
    assert code == 0
    assert "pascal: n=1..50 p=-1..10: 600 checks, all pass" in out


def test_check_single_tuple_prints_detail(capsys):
    code, out, _ = run_cli(capsys, "check", "split1", "--n", "2", "--m", "3")
    assert code == 0
    assert "ok split1 n=2 m=3: 15 = 3 + 6 + 6" in out


def test_check_each_lists_every_tuple(capsys):
    _, out, _ = run_cli(capsys, "check", "pascal", "--n", "1..2", "--p", "0..1", "--each")
    assert sum(line.startswith("ok pascal") for line in out.splitlines()) == 4


def test_check_json_summary(capsys):
    code, out, _ = run_cli(capsys, "check", "newton", "--n", "1..3", "--m", "1..3", "--p", "-1..2", "--json")
    envelope = json.loads(out)
    assert code == 0
    assert envelope["result"] == {"checked": 36, "failures": 0}
    assert envelope["checks"] == [{"name": "newton n=1..3 m=1..3 p=-1..2", "pass": True}]


# each identity's variables and their least values
FLOORS = {
    "pascal": {"n": 1, "p": -1},
    "newton": {"n": 1, "m": 1, "p": -1},
    "split1": {"n": 1, "m": 1},
    "split2": {"n": 1, "m": 1},
    "recurrence": {"n": 1, "p": 0},
    "closedform": {"n": 1, "p": -1},
}
# a range one below each floor, and its message
BELOW_FLOOR = {
    ("check", identity, f"--{var}", str(floor - 1)): f"--{var} must start at {floor} or above for '{identity}'"
    for identity, floors in FLOORS.items()
    for var, floor in floors.items()
}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "pascal", "--m", "1..5"],
        ["check", "pascal", "--n", "5..1"],
        ["check", "pascal", "--n", "0..5"],
        ["check", "recurrence", "--p", "-1..3"],
        ["check", "nosuch"],
        *map(list, BELOW_FLOOR),
    ],
)
def test_check_usage_errors(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    if tuple(argv) in BELOW_FLOOR:
        assert err.startswith(f"error: {BELOW_FLOOR[tuple(argv)]}\n")


@pytest.mark.parametrize("identity", sorted(FLOORS))
def test_check_accepts_each_range_from_its_floor(identity, capsys):
    floors = FLOORS[identity]
    argv = [arg for var, floor in floors.items() for arg in (f"--{var}", f"{floor}..{floor + 1}")]
    code, out, _ = run_cli(capsys, "check", identity, *argv)
    assert code == 0
    assert out.endswith(f": {2 ** len(floors)} checks, all pass\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "newton", "--n", "1..1000", "--m", "1..1000", "--p", "0..1000"],  # 10**9 tuples
        ["check", "split1", "--n", "1..1001", "--m", "1..1000"],  # 1,001,000 tuples of 8 small calls each
    ],
)
def test_check_refuses_sweeps_past_a_million_tuples_on_the_budget(argv, capsys):
    # no tuple cap: the top-corner projection is the sweep's one guard, and it exits 3 before any tuple runs
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith(f"error: check {argv[1]} sweep of ") and "exceeds budget 100000000" in err


def test_check_runs_a_sweep_past_a_million_tuples_that_fits_its_budget(capsys, monkeypatch):
    # the identity's check is stubbed so that the 1,001,000 tuples run fast; --budget lifts the projection
    variables, _, defaults, tuple_work = cli._IDENTITIES["split1"]
    monkeypatch.setitem(cli._IDENTITIES, "split1", (variables, lambda n, m: (True, 0, 0), defaults, tuple_work))
    argv = ["check", "split1", "--n", "1..1001", "--m", "1..1000"]
    projected = refusal([*argv, "--budget", "1"]).projected
    assert projected > DEFAULT_STEP_BUDGET
    code, out, err = run_cli(capsys, *argv, "--budget", str(projected))
    assert (code, err) == (0, "")
    assert out == "split1: n=1..1001 m=1..1000: 1001000 checks, all pass\n"


def test_check_refuses_sweeps_over_the_call_cap():
    # recurrence makes n + 1 binomials per tuple, up to C(1999, 1000), so 10**6 tuples project far past the budget
    proc = subprocess.run(
        [sys.executable, "-m", "termirial", "check", "recurrence", "--n", "1..1000", "--p", "0..999"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    projected = 10**6 * 1002 * value_cost(1999, 1000)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: check recurrence sweep of 1000000 tuples: projected {projected} exceeds budget 100000000\n"


# A tuple's calls, counted as the check itself plus one per kernel call, running-product step and
# order-row step, and the (N, k) of the largest C(N, k) it makes, written out apart from cli._IDENTITIES.
TUPLE_WORK = {
    "pascal": lambda n, p: (3, n + p + 2, p + 2),
    "newton": lambda n, m, p: (2 * p + 4, n + m + p, p + 1),
    "split1": lambda n, m: (8, n + m + 1, 2),
    "split2": lambda n, m: (12, n + m + 2, 3),
    "recurrence": lambda n, p: (n + 2, n + p, p + 1),
    "closedform": lambda n, p: (p + 3, n + p, p + 1),
}


@pytest.mark.parametrize("identity", sorted(CHECK_ARGS))
@given(data=st.data())
def test_sweep_projection_uses_the_top_corner(identity, data):
    # tuples times the calls and the largest value's cost at the top corner, for any ranges, before any work
    argv, total, corner = ["check", identity, "--budget", "1"], 1, []
    for var in cli._IDENTITIES[identity][0]:
        lo = data.draw(st.integers(-1 if var == "p" else 1, 10**6), label=f"{var} start")
        hi = data.draw(st.integers(lo, lo + 99), label=f"{var} stop")
        argv.append(f"--{var}={lo}..{hi}")
        total, corner = total * (hi - lo + 1), corner + [hi]
    if identity == "recurrence" and argv[-1].startswith("--p=-1"):
        return  # recurrence starts at p = 0
    calls, top, bottom = TUPLE_WORK[identity](*corner)
    assert refusal(argv).projected == total * calls * value_cost(top, bottom)


@pytest.mark.parametrize("identity", sorted(CHECK_ARGS))
def test_check_projects_its_kernel_calls(identity, capsys, monkeypatch):
    import termirial.core
    import termirial.oracle

    # one tuple, the top corner of CHECK_ARGS: the refusal charges its calls times the largest value's cost
    flags, ranges = CHECK_ARGS[identity][::2], CHECK_ARGS[identity][1::2]
    corner = [cli._range_arg(text)[1] for text in ranges]
    single = [text for flag, hi in zip(flags, corner) for text in (flag, str(hi))]
    calls, top, bottom = TUPLE_WORK[identity](*corner)
    assert refusal(["check", identity, *single, "--budget", "1"]).projected == calls * value_cost(top, bottom)

    made = 1  # the check itself

    def counted(fn, steps=lambda *args: 1):
        def wrapper(*args):
            nonlocal made
            made += steps(*args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(termirial.core, "termirial_p", counted(termirial.core.termirial_p))
    monkeypatch.setattr(termirial.core, "termirial", counted(termirial.core.termirial))
    monkeypatch.setattr(termirial.core, "_order_row", counted(termirial.core._order_row, lambda n, p: p + 1))
    product = termirial.oracle.termirial_product
    monkeypatch.setattr(termirial.oracle, "termirial_product", counted(product, lambda n, p: p + 1))
    assert run_cli(capsys, "check", identity, *single)[0] == 0
    assert made == calls


def test_check_failure_exits_one(capsys, monkeypatch):
    # identities are theorems, so force a failure to exercise exit code 1
    import termirial.core

    monkeypatch.setattr(termirial.core, "pascal_check", lambda n, p: (1, 2))
    code, out, _ = run_cli(capsys, "check", "pascal", "--n", "1..3", "--p", "0..1")
    assert code == 1
    assert "FAIL pascal" in out
    assert "6 FAILED" in out


def test_simulator_disagreement_exits_one(capsys, monkeypatch):
    import termirial.loopnest

    monkeypatch.setattr(termirial.loopnest, "simulate", lambda prog, n, budget: 0)
    code, out, _ = run_cli_stdin(capsys, monkeypatch, "n = 3\nfor i = 1 to n", "loops", "--simulate")
    assert code == 1
    assert "DISAGREES" in out


def test_oracle_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "nested_sum", lambda n, p, budget: 36)
    code, out, _ = run_cli(capsys, "eval", "5", "2", "--oracle")
    assert (code, out) == (1, "35\nbinomial form: C(7, 3)\noracle (iterated sum): 36 [DISAGREES]\n")
    code, out, _ = run_cli(capsys, "eval", "5", "2", "--oracle", "--json")
    assert code == 1
    assert json.loads(out)["checks"] == [{"name": "iterated-sum oracle agrees", "pass": False}]


def test_enum_disagreement_exits_one(capsys, monkeypatch):
    import termirial.core

    monkeypatch.setattr(termirial.core, "binomial", lambda n, k: 11)
    code, out, _ = run_cli(capsys, "enum", "5", "2")
    assert code == 1
    assert "C(5, 2) = 11" in out and "decomposition: 4 + 3 + 2 + 1 = 10" in out
    code, out, _ = run_cli(capsys, "enum", "5", "2", "--json")
    assert code == 1
    assert json.loads(out)["checks"] == [{"name": "group counts sum to the binomial coefficient", "pass": False}]


def test_fractal_report_checks_pass(capsys):
    assert run_cli(capsys, "fractal", "4", "2", "--report")[0] == 0
    code, out, _ = run_cli(capsys, "fractal", "4", "2", "--report", "--json")
    assert code == 0
    assert json.loads(out)["checks"] == [{"name": "measured ratio equals closed form", "pass": True}]


def test_enum_decomposition(capsys):
    code, out, _ = run_cli(capsys, "enum", "5", "2")
    assert code == 0
    assert "C(5, 2) = 10" in out
    assert "decomposition: 4 + 3 + 2 + 1 = 10" in out
    assert "termirial reading: C(5, 2) = termirial_p(4, 1) = 10" in out


def test_enum_triple(capsys):
    code, out, _ = run_cli(capsys, "enum", "5", "3")
    assert code == 0
    assert "decomposition: 6 + 3 + 1 = 10" in out


def test_enum_lists_subsets_on_request(capsys):
    code, out, _ = run_cli(capsys, "enum", "3", "3", "--subsets")
    assert code == 0
    assert "{1, 2, 3}" in out


def test_enum_json(capsys):
    code, out, _ = run_cli(capsys, "enum", "5", "2", "--subsets", "--json")
    envelope = json.loads(out)
    assert code == 0
    assert envelope["result"]["binomial"] == 10
    assert envelope["result"]["groups"] == [[1, 4], [2, 3], [3, 2], [4, 1]]
    assert envelope["result"]["subsets"][0] == [1, 2]
    assert len(envelope["result"]["subsets"]) == 10
    assert envelope["checks"] == [{"name": "group counts sum to the binomial coefficient", "pass": True}]


def test_enum_guards(capsys):
    assert run_cli(capsys, "enum", "25", "2")[0] == 0  # any n whose walk fits the budget
    code, out, _ = run_cli(capsys, "enum", "21", "2", "--subsets")  # no cap on n: the listing's charge is its guard
    assert code == 0
    assert sum(line.startswith("{") for line in out.splitlines()) == 210
    assert run_cli(capsys, "enum", "21", "10", "--subsets")[0] == 3  # 352,716 subsets to hold
    assert run_cli(capsys, "enum", "1000000", "1")[0] == 3  # 10**6 groups
    assert run_cli(capsys, "enum", "5", "6")[0] == 2
    assert run_cli(capsys, "enum", "5", "0")[0] == 2
    assert run_cli(capsys, "enum", "5", "2", "--budget", "5")[0] == 3


def test_enum_refuses_on_the_default_budget(capsys):
    code, out, err = run_cli(capsys, "enum", "21", "10", "--subsets")
    assert (code, out) == (3, "")
    assert err == "error: subsets(21, 10): projected 178095667 exceeds budget 100000000\n"


def test_enum_refuses_the_listing_before_the_walk(capsys, monkeypatch):
    # the listing's charge covers the decomposition's walk, so it is made first, and a refused one walks nothing
    monkeypatch.setattr(oracle, "decompose_by_leading", lambda *args, **kwargs: pytest.fail("walked"))
    code, out, err = run_cli(capsys, "enum", "828", "2", "--subsets")
    assert (code, out) == (3, "")
    assert err.startswith("error: subsets(828, 2): projected ")


@pytest.mark.parametrize(("n", "p"), [(2**64 + 1, 1), (2**64 + 1, 2), (2**64 + 1, 500), (10**6, 500)])
def test_enum_refusals_show_large_ints_by_size(n, p, capsys):
    # n past 64 bits, or a projection past 64 bits: C(10**6, 500) is short of 4,300 digits, so it is made
    code, out, err = run_cli(capsys, "enum", str(n), str(p))
    assert (code, out) == (3, "")
    shown = n if n.bit_length() <= 64 else f"<{n.bit_length()}-bit int>"
    assert err.startswith(f"error: subsets({shown}, {p}): projected <")
    assert err.endswith("-bit int> exceeds budget 100000000\n") and len(err) < 120


def test_loops_from_file(tmp_path, capsys):
    path = tmp_path / "four.loop"
    path.write_text(FOUR_LOOPS)
    code, out, _ = run_cli(capsys, "loops", str(path))
    assert code == 0
    assert "depth: 4" in out
    assert "closed form: termirial_p(100, 3) = C(103, 4)" in out
    assert "count: 4421275" in out
    assert "theta: Θ(n^4)" in out


def test_loops_from_stdin_with_override(capsys, monkeypatch):
    code, out, _ = run_cli_stdin(capsys, monkeypatch, "for i = 1 to n", "loops", "--n", "7")
    assert code == 0
    assert "count: 7" in out
    assert "theta: Θ(n^1)" in out


def test_loops_symbolic_without_bound(capsys, monkeypatch):
    code, out, _ = run_cli_stdin(capsys, monkeypatch, "for i = 1 to n\nfor j = 1 to i", "loops")
    assert code == 0
    assert "closed form: termirial_p(n, 1) = C(n+1, 2)" in out
    assert "count:" not in out


def test_loops_simulate_agrees(capsys, monkeypatch):
    source = "for i = 1 to n\nfor j = 1 to i\nfor k = 1 to j"
    code, out, _ = run_cli_stdin(capsys, monkeypatch, source, "loops", "--n", "4", "--simulate")
    assert code == 0
    assert "simulated: 20 [agrees]" in out


def test_loops_json(capsys, monkeypatch):
    code, out, _ = run_cli_stdin(
        capsys, monkeypatch, FOUR_LOOPS, "loops", "--simulate", "--json"
    )
    envelope = json.loads(out)
    assert code == 0
    assert envelope["result"]["exact_count"] == 4421275
    assert envelope["result"]["simulated"] == 4421275
    assert envelope["result"]["theta_exponent"] == 4
    assert envelope["checks"] == [{"name": "simulator agrees with closed form", "pass": True}]


def test_loops_parse_error_exit_and_position(capsys, monkeypatch):
    code, _, err = run_cli_stdin(capsys, monkeypatch, "for i = 2 to n", "loops")
    assert code == 2
    assert "line 1, column 9" in err


def test_loops_simulate_deep_nest(capsys, tmp_path):
    lines = ["n = 1", "for v0 = 1 to n"] + [f"for v{d} = 1 to v{d - 1}" for d in range(1, 3000)]
    path = tmp_path / "deep.loop"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "loops", str(path), "--simulate", "--json")
    assert code == 0
    assert json.loads(out)["result"]["simulated"] == 1


def test_loops_simulation_budget(capsys, monkeypatch):
    code, _, _ = run_cli_stdin(capsys, monkeypatch, FOUR_LOOPS, "loops", "--simulate", "--budget", "1000")
    assert code == 3


def test_loops_simulate_refuses_on_the_default_budget(capsys, monkeypatch):
    # a six-deep chain at n = 100 enters its body C(105, 6) times, past the default step budget
    source = "n = 100\nfor v0 = 1 to n\n" + "".join(f"for v{d} = 1 to v{d - 1}\n" for d in range(1, 6))
    code, out, err = run_cli_stdin(capsys, monkeypatch, source, "loops", "--simulate")
    assert (code, out) == (3, "")
    assert err == "error: simulate depth 6 with n = 100: projected 160934560 exceeds budget 100000000\n"


def test_loops_simulate_needs_a_bound(capsys, monkeypatch):
    code, _, err = run_cli_stdin(capsys, monkeypatch, "for i = 1 to n", "loops", "--simulate")
    assert code == 2
    assert "--n" in err


@pytest.mark.parametrize("source", ["", "for i = 2 to n"])
def test_loops_rejects_negative_n_before_reading(source, capsys, monkeypatch):
    code, out, err = run_cli_stdin(capsys, monkeypatch, source, "loops", "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --n must be >= 0\nrun 'termirial loops --help' for usage\n"


def test_loops_missing_file(capsys):
    code, _, err = run_cli(capsys, "loops", "/no/such/file.loop")
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: '/no/such/file.loop'\n"


def test_loops_on_a_directory(capsys, tmp_path):
    assert run_cli(capsys, "loops", str(tmp_path)) == (2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")


def test_fractal_ascii_figure(capsys):
    code, out, _ = run_cli(capsys, "fractal", "4", "2")
    assert code == 0
    assert out.count("#") == 20


def test_fractal_report(capsys):
    code, out, _ = run_cli(capsys, "fractal", "4", "1", "--report")
    assert code == 0
    assert "ratio: 10" in out
    assert "measured: yes" in out


def test_fractal_report_only_large_order(capsys):
    code, out, _ = run_cli(capsys, "fractal", "4", "500", "--report-only")
    assert code == 0
    assert "ratio: 672/167" in out
    assert "measured: no (closed form only)" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_fractal_report_past_float_range(capsys, json_flag):
    # the ratio 2 * 10**400 overflows a float; the estimate is read from its two ints
    code, out, err = run_cli(capsys, "fractal", "9" * 400, "1", "--report-only", *json_flag)
    assert (code, err) == (0, "")
    estimate = json.loads(out)["result"]["dimension_estimate"] if json_flag else float(out.splitlines()[1].split(": ")[1])
    assert math.isclose(estimate, 1 + 400 * math.log2(10))


def test_fractal_text_mode_never_counts_cells(capsys, monkeypatch):
    import termirial.core
    import termirial.fractal  # bound to the kernel before the patch below

    def closed_form(*args):
        raise AssertionError("text mode never prints the cell count")

    monkeypatch.setattr(termirial.core, "termirial_p", closed_form)
    code, out, err = run_cli(capsys, "fractal", "4", "2")
    assert (code, out.count("#"), err) == (0, 20, "")


def test_fractal_svg_to_file(tmp_path, capsys):
    target = tmp_path / "figure.svg"
    code, out, _ = run_cli(capsys, "fractal", "4", "2", "--format", "svg", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().count("<rect ") == 20


def test_fractal_refused_under_json_writes_no_file(tmp_path, capsys):
    # the one-cell figure fits the cell budget, but its 2**10**6 side is refused on the step budget
    target = tmp_path / "side.txt"
    code, out, err = run_cli(capsys, "fractal", "1", "1000000", "--json", "--out", str(target))
    assert (code, out) == (3, "")
    assert err.startswith("error: cell count and side of figure (1, 1000000): projected ")
    assert not target.exists()


@pytest.mark.parametrize("flags", [[], ["--json"], ["--format", "svg", "--report"]])
def test_fractal_out_writes_the_rendered_figure(flags, tmp_path, capsys):
    from termirial import fractal

    target = tmp_path / "figure.txt"
    assert run_cli(capsys, "fractal", "4", "2", *flags, "--out", str(target))[0] == 0
    fmt = "svg" if "svg" in flags else "ascii"
    assert target.read_bytes() == (fractal.render(fractal.build(4, 2), fmt) + "\n").encode()


def test_fractal_out_into_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "figure.txt"
    code, out, err = run_cli(capsys, "fractal", "4", "2", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"


def test_fractal_json_includes_figure(capsys):
    code, out, _ = run_cli(capsys, "fractal", "2", "0", "--json")
    envelope = json.loads(out)
    assert code == 0
    assert envelope["result"]["cells"] == 2
    assert envelope["result"]["figure"] == "##"
    assert envelope["result"]["cell_side"] == "1"
    assert json.loads(run_cli(capsys, "fractal", "3", "3", "--json")[1])["result"]["cell_side"] == "1/8"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="interpreter without an int-to-text digit cap")
def test_fractal_text_mode_never_formats_the_cell_side(capsys, monkeypatch):
    # Only --json prints the cell side 1/2^p, 301,030 digits at p = 10^6.  With
    # the digit cap left in place, formatting it would raise; text mode must not.
    monkeypatch.setattr(sys, "set_int_max_str_digits", lambda maxdigits: None)
    code, out, err = run_cli(capsys, "fractal", "1", "1000000")
    assert (code, out, err) == (0, "#\n", "")


def test_fractal_exit_codes(capsys):
    assert run_cli(capsys, "fractal", "0", "1")[0] == 2
    assert run_cli(capsys, "fractal", "4", "-1")[0] == 2
    assert run_cli(capsys, "fractal", "4", "0", "--report")[0] == 2
    assert run_cli(capsys, "fractal", "2", "501")[0] == 0  # 503 cells: no order cap
    assert run_cli(capsys, "fractal", "3", "5000")[0] == 3  # 12,512,503 cells
    assert run_cli(capsys, "fractal", "4", "500")[0] == 3  # over the cell budget
    assert run_cli(capsys, "fractal", "10", "8", "--budget", "100")[0] == 3


# tools/extremes.py's text-mode fractal and enum cases, which its subprocess runs time out of tier-1
EXTREME_FIGURES = [argv for argv, _ in extremes.cases() if argv[0] in ("fractal", "enum") and "--json" not in argv]
# the largest subset listings the default budget accepts, each about a second of work by design (0.8 s in-process
# for enum 20 10 --subsets, which the budget must accept), in text and --json
LISTINGS_AT_THE_EDGE = {("enum", str(n), str(p)) for n, p in extremes.LISTING_EDGES}


@pytest.mark.parametrize("argv", EXTREME_FIGURES, ids=map(extremes.label, EXTREME_FIGURES))
def test_extreme_fractal_and_enum_cases_end_fast(argv, capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < (2.5 if tuple(argv[:3]) in LISTINGS_AT_THE_EDGE else 1)
    assert code in (0, 2, 3), err


# the rest of tools/extremes.py's grid: eval, check, loops and every --json form
EXTREME_OTHERS = [case for case in extremes.cases() if case[0] not in EXTREME_FIGURES]
# accepted cases that print the 200,000-digit C(10**400 + 499, 501), in quadratic time below Python 3.12:
# eval in text and --json, and the --json cell count of fractal --report-only
PRINTS_200K_DIGITS = {("eval", "9" * 400, "500"), ("fractal", "9" * 400, "500")}


@pytest.mark.parametrize("argv, stdin", EXTREME_OTHERS, ids=[extremes.label(argv) for argv, _ in EXTREME_OTHERS])
def test_every_other_extreme_case_ends_fast(argv, stdin, capsys, monkeypatch):
    start = time.perf_counter()
    code, _, err = run_cli_stdin(capsys, monkeypatch, stdin, *argv)
    limit = 2.5 if tuple(argv[:3]) in PRINTS_200K_DIGITS | LISTINGS_AT_THE_EDGE else 1
    assert time.perf_counter() - start < limit
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


def test_module_entry_point_value():
    proc = subprocess.run(
        [sys.executable, "-m", "termirial", "eval", "100", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "4421275"


def test_module_entry_point_parse_error():
    proc = subprocess.run(
        [sys.executable, "-m", "termirial", "loops", "-"],
        input="for i = 1 to\n",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "line 1" in proc.stderr
