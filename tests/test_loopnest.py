"""Loop-nest DSL: parsing, error positions, analysis, and the simulator."""

import itertools
import math
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termirial import core, loopnest, oracle
from termirial.budget import BudgetExceededError, value_cost
from termirial.core import termirial_p
from termirial.loopnest import (
    DuplicateIndexError,
    Loop,
    LoopNestError,
    LoopNestProgram,
    LoopSyntaxError,
    NonChainBoundError,
    UnknownIdentifierError,
    analyze,
    parse,
    render,
    simulate,
)
from termirial.oracle import nested_sum

FOUR_LOOPS = """\
n = 100
for i = 1 to n
for j = 1 to i
for k = 1 to j
for l = 1 to k
"""

# (source, error class, line, column, message)
MALFORMED = [
    ("", LoopSyntaxError, 1, 1, "expected at least one loop"),
    ("n = 100\n", LoopSyntaxError, 1, 1, "expected at least one loop"),
    ("# just a comment\n", LoopSyntaxError, 1, 1, "expected at least one loop"),
    ("for", LoopSyntaxError, 1, 4, "expected a loop index, found end of line"),
    ("for i", LoopSyntaxError, 1, 6, "expected '=', found end of line"),
    ("for i =", LoopSyntaxError, 1, 8, "expected '1', found end of line"),
    ("for i = 1", LoopSyntaxError, 1, 10, "expected 'to', found end of line"),
    ("for i = 1 to", LoopSyntaxError, 1, 13, "expected a bound identifier, found end of line"),
    ("for i = 2 to n", LoopSyntaxError, 1, 9, "expected '1' (loops always run from 1), found '2'"),
    ("for i = 1 n", LoopSyntaxError, 1, 11, "expected 'to', found 'n'"),
    ("for i = 1 to 100", LoopSyntaxError, 1, 14, "expected a bound identifier, found '100'"),
    ("for i = 1 to n extra", LoopSyntaxError, 1, 16, "unexpected 'extra' after end of statement"),
    ("for $ = 1 to n", LoopSyntaxError, 1, 5, "unexpected character '$'"),
    ("for to = 1 to n", LoopSyntaxError, 1, 5, "expected a loop index, found 'to'"),
    ("for i 1 to n", LoopSyntaxError, 1, 7, "expected '=', found '1'"),
    ("n == 100\nfor i = 1 to n", LoopSyntaxError, 1, 4, "expected an integer, found '='"),
    ("n =\nfor i = 1 to n", LoopSyntaxError, 1, 4, "expected an integer, found end of line"),
    ("n = x\nfor i = 1 to n", LoopSyntaxError, 1, 5, "expected an integer, found 'x'"),
    ("n = 5 6\nfor i = 1 to n", LoopSyntaxError, 1, 7, "unexpected '6' after end of statement"),
    ("n = 100 for i = 1 to n", LoopSyntaxError, 1, 9, "unexpected 'for' after end of statement"),
    ("_ = 1\nfor i = 1 to n", LoopSyntaxError, 1, 1, "unexpected character '_'"),
    ("n = 100\nx = 5\nfor i = 1 to n", LoopSyntaxError, 2, 1, "expected 'for', found 'x'"),
    ("for i = 1 to n\nn = 5", LoopSyntaxError, 2, 1, "expected 'for', found 'n'"),
    ("for i = 1 to n\nfor j = 1 to x", UnknownIdentifierError, 2, 14, "unknown name 'x'"),
    ("m = 3\nfor i = 1 to n", UnknownIdentifierError, 2, 14, "unknown name 'n'"),
    ("for i = 1 to n\nfor i = 1 to i", DuplicateIndexError, 2, 5, "index 'i' is already in use"),
    ("for i = 1 to n\nfor n = 1 to i", DuplicateIndexError, 2, 5, "index 'n' is already in use"),
    ("for i = 1 to i", DuplicateIndexError, 1, 5, "index 'i' is already in use"),
    (
        "for i = 1 to n\nfor j = 1 to i\nfor k = 1 to n",
        NonChainBoundError, 3, 14, "bound 'n' breaks the chain; expected 'j'",
    ),
    (
        "for i = 1 to n\nfor j = 1 to i\nfor k = 1 to i",
        NonChainBoundError, 3, 14, "bound 'i' breaks the chain; expected 'j'",
    ),
    ("for i = 1 to n\nfor j = 1 to j", NonChainBoundError, 2, 14, "bound 'j' breaks the chain; expected 'i'"),
    ("n = 5\nfor i = 1 to i", NonChainBoundError, 2, 14, "bound 'i' breaks the chain; expected 'n'"),
]


def chain_program(depth: int, n: int | None = None) -> LoopNestProgram:
    names = [f"v{d}" for d in range(depth)]
    loops = [Loop(index=names[0], bound="n")]
    loops += [Loop(index=names[d], bound=names[d - 1]) for d in range(1, depth)]
    return LoopNestProgram(param_name="n", param_value=n, loops=tuple(loops))


def test_parse_four_loop_program():
    prog = parse(FOUR_LOOPS)
    assert prog.param_name == "n"
    assert prog.param_value == 100
    assert [loop.index for loop in prog.loops] == ["i", "j", "k", "l"]
    assert [loop.bound for loop in prog.loops] == ["n", "i", "j", "k"]


def test_parse_minimal_program():
    prog = parse("for i = 1 to n")
    assert prog.param_name == "n"
    assert prog.param_value is None
    assert prog.depth == 1


def test_overlong_integer_literal_is_a_positioned_syntax_error():
    # parse limits a literal to 4,300 digits itself, with the interpreter's
    # int-to-text cap at its default or lifted, and on interpreters without one
    assert issubclass(LoopNestError, ValueError)
    has_cap = hasattr(sys, "set_int_max_str_digits")
    saved = sys.get_int_max_str_digits() if has_cap else None
    try:
        for cap in (4300, 0) if has_cap else (None,):
            if has_cap:
                sys.set_int_max_str_digits(cap)
            assert parse("n = " + "9" * 4300 + "\nfor i = 1 to n").param_value == 10**4300 - 1
            for digits in (4301, 5000):
                with pytest.raises(LoopSyntaxError) as caught:
                    parse("n = " + "9" * digits + "\nfor i = 1 to n")
                assert (caught.value.line, caught.value.column) == (1, 5)
                assert caught.value.message == f"integer literal of {digits} digits is too long"
    finally:
        if has_cap:
            sys.set_int_max_str_digits(saved)


def test_parse_tolerates_whitespace_case_and_comments():
    messy = "  N = 7  # the bound\n\nFOR i = 1 TO N\n\tfor j=1 to i # inner\n"
    assert parse(messy) == parse("N = 7\nfor i = 1 to N\nfor j = 1 to i")


def test_indices_are_case_sensitive():
    with pytest.raises(UnknownIdentifierError):
        parse("for i = 1 to n\nfor j = 1 to I")


def _malformed_id(row):
    """The id a row had before it carried its message, so that each case keeps its name."""
    source, error, line, column, _ = row
    return f"{source}-{error.__name__}-{line}-{column}"


@pytest.mark.parametrize("source,error,line,column,message", MALFORMED, ids=map(_malformed_id, MALFORMED))
def test_malformed_input_reports_kind_and_position(source, error, line, column, message):
    with pytest.raises(error) as caught:
        parse(source)
    assert isinstance(caught.value, LoopNestError)
    assert (caught.value.line, caught.value.column, caught.value.message) == (line, column, message)
    assert f"line {line}, column {column}" in str(caught.value)


def test_render_is_canonical():
    assert render(parse("N=9\nFOR x = 1 TO N")) == "N = 9\nfor x = 1 to N\n"


def test_deep_nest_round_trip():
    source = "n = 2\nfor v0 = 1 to n\n" + "".join(f"for v{d} = 1 to v{d - 1}\n" for d in range(1, 20000))
    prog = parse(source)
    assert prog.depth == 20000
    assert render(prog) == source
    assert parse(render(prog)) == prog


def test_render_round_trip():
    sources = [
        FOUR_LOOPS,
        "for i = 1 to n",
        "q = 3\nfor a = 1 to q\nfor b = 1 to a",
    ]
    for source in sources:
        prog = parse(source)
        assert parse(render(prog)) == prog


NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True).filter(lambda name: name.lower() not in ("for", "to"))


@given(st.lists(NAMES, min_size=2, max_size=8, unique=True), st.none() | st.integers(0, 10**6))
def test_render_round_trip_property(names, value):
    param, *indices = names
    bounds = [param, *indices[:-1]]
    loops = tuple(Loop(index=index, bound=bound) for index, bound in zip(indices, bounds))
    prog = LoopNestProgram(param_name=param, param_value=value, loops=loops)
    assert parse(render(prog)) == prog


@given(st.text() | st.text(alphabet="forFOR toTO=0123456789nijk_#\t\n -"))
def test_parse_raises_only_loop_nest_errors(source):
    try:
        prog = parse(source)
    except LoopNestError:
        return
    assert prog.depth >= 1


STATEMENTS = ((loopnest._FOR_LINE_RE, loopnest._FOR_SHAPE), (loopnest._ASSIGN_RE, loopnest._ASSIGN_SHAPE))


def statement_match(code):
    """The match of the statement regex that accepts code, or None.

    An accepted line must read the same as its tokens: one token per entry
    of the statement's shape, each matching that entry's pattern, and every
    named group (names, value) starting where a token with its text starts.
    """
    for regex, shape in STATEMENTS:
        match = regex.fullmatch(code)
        if match:
            tokens = list(loopnest._TOKEN_RE.finditer(code))
            assert len(tokens) == len(shape)
            assert all(re.fullmatch(pattern, token[0]) for (_, pattern), token in zip(shape, tokens))
            groups = {(match.start(name), text) for name, text in match.groupdict().items()}
            assert groups <= {(token.start(), token[0]) for token in tokens}
            return match
    return None


@pytest.mark.parametrize(
    "line",
    [
        "for i = 1 to n",
        "FOR i=1TO n",
        "  fOr\tI_2 =1to  n  ",
        "for fort = 1 to tom",
        "for i = 1 to\tn\t",
        "n = 5",
        "N=7",
        "  x_1\t=\t05  ",
        "fort = 100",
        "To1 = 3\t",
    ],
)
def test_for_line_regex_accepts_well_formed_lines(line):
    assert statement_match(line)


@pytest.mark.parametrize(
    "line",
    [
        "fori = 1 to n",
        "for i = 01 to n",
        "for i = 10 to n",
        "for i = 1 ton",
        "for to = 1 to n",
        "for i = 1 to FOR",
        "for é = 1 to n",
        "for i = 1 to nñ",
        "for i = 1 to n extra",
        "for i = 1 to n\x0b",
        "n = x",
        "n = 5 6",
        "n == 5",
        "to = 5",
        "n = -1",
        "n = 5x",
        "n =",
        "_ = 1",
        "n = \uff15",
        "é = 1",
    ],
)
def test_for_line_regex_rejects_every_other_line(line):
    assert not any(regex.fullmatch(line) for regex, _ in STATEMENTS)
    assert isinstance(loopnest._syntax_error(line, 1, True), LoopSyntaxError)


def _case_variants(word):
    return st.sampled_from([word, word.upper(), word.capitalize(), word[:-1] + word[-1].upper()])


# Blanks are mostly present, so most drawn lines are well formed; the rest fuse or miss.
GAPS = st.sampled_from([" "] * 6 + ["\t", "  ", " \t", ""])
TAILS = st.sampled_from([""] * 10 + ["#", "# for i = 1 to n", "\t# x", "$", " é"])
NAME_POOL = ["n", "i", "j", "k", "l", "I", "x_1", "fort"] * 3 + ["é", "ſ", "K", "to", "For"]
WORDS = st.sampled_from(["for", "FOR", "to", "To", "=", "1", "01", "1to", "9", "$", "é", "#", "# x = 1", "n", "i"])


@st.composite
def for_line(draw, index, bound):
    one = draw(st.sampled_from(["1"] * 10 + ["01", "10"]))
    parts = [draw(_case_variants("for")), index, "=", one, draw(_case_variants("to")), bound]
    return draw(GAPS) + "".join(part + draw(GAPS) for part in parts) + draw(TAILS)


@st.composite
def assign_line(draw, name):
    value = draw(st.sampled_from(["5"] * 6 + ["05", "", "x"]))
    return draw(GAPS) + name + draw(GAPS) + "=" + draw(GAPS) + value + draw(TAILS)


@st.composite
def loose_line(draw):
    return draw(GAPS) + "".join(word + draw(GAPS) for word in draw(st.lists(WORDS, max_size=8)))


@st.composite
def nest_sources(draw):
    """A chain of `for` lines in drawn spellings, maybe assigned, with stray lines mixed in."""
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=2, max_size=5, unique=draw(st.integers(0, 3)) > 0))
    bounds = [draw(st.sampled_from(NAME_POOL)) if draw(st.integers(0, 7)) == 0 else name for name in names]
    lines = [draw(for_line(index, bound)) for bound, index in zip(bounds, names[1:])]
    if draw(st.booleans()):
        lines.insert(0, draw(assign_line(names[0])))
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(loose_line()))
    return "\n".join(lines)


ANY_LINE = st.one_of(
    st.tuples(st.sampled_from(NAME_POOL), st.sampled_from(NAME_POOL)).flatmap(lambda names: for_line(*names)),
    st.sampled_from(NAME_POOL).flatmap(assign_line),
    loose_line(),
    nest_sources().flatmap(lambda source: st.sampled_from(source.splitlines() or [""])),
)


@settings(max_examples=500)
@given(ANY_LINE, st.booleans())
def test_each_line_is_accepted_whole_or_diagnosed(line, assign_allowed):
    code = line.split("#", 1)[0]
    if code.strip(" \t") and statement_match(code) is None:
        error = loopnest._syntax_error(code, 7, assign_allowed)
        assert isinstance(error, LoopSyntaxError)
        assert error.line == 7 and 1 <= error.column <= len(code) + 1


def test_analyze_four_loop_program():
    res = analyze(parse(FOUR_LOOPS))
    assert res.depth == 4
    assert res.order == 3
    assert res.exact_count == 4421275
    assert res.theta_exponent == 4
    assert res.termirial_text() == "termirial_p(100, 3)"
    assert res.binomial_text() == "C(103, 4)"
    assert res.theta_text() == "Θ(n^4)"


def test_analyze_single_loop():
    res = analyze(parse("for i = 1 to n"), n=7)
    assert res.exact_count == 7
    assert res.theta_exponent == 1


def test_analyze_two_loops_matches_hand_count():
    # inner body runs 1 + 2 + 3 + 4 + 5 times
    res = analyze(parse("for i = 1 to n\nfor j = 1 to i"), n=5)
    assert res.exact_count == 15


def test_analyze_symbolic_without_bound():
    res = analyze(parse("for i = 1 to n\nfor j = 1 to i"))
    assert res.exact_count is None
    assert res.termirial_text() == "termirial_p(n, 1)"
    assert res.binomial_text() == "C(n+1, 2)"
    assert analyze(parse("for i = 1 to n")).binomial_text() == "C(n, 1)"


def test_analyze_override_wins_over_program_value():
    res = analyze(parse(FOUR_LOOPS), n=4)
    assert res.exact_count == termirial_p(4, 3)


def test_analyze_refuses_a_huge_count_before_making_it():
    # C(10**1000 + 2999, 3000) has about 3 million digits; the library call is charged as `termirial loops` is
    prog = chain_program(3000, n=10**1000 - 1)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as caught:
        analyze(prog)
    assert time.perf_counter() - start < 0.1
    assert caught.value.what == "loop count termirial_p(<3322-bit int>, 2999)"
    assert analyze(prog, n=5, budget=value_cost(5 + 2999, 3000)).exact_count == termirial_p(5, 2999)
    with pytest.raises(BudgetExceededError):
        analyze(prog, n=5, budget=value_cost(5 + 2999, 3000) - 1)


def test_simulate_matches_analyze():
    for depth in range(1, 6):
        prog = chain_program(depth)
        for n in range(0, 31):
            assert simulate(prog, n) == analyze(prog, n=n).exact_count, (depth, n)


def body_entries(depth: int, n: int) -> int:
    """Every index tuple of the chain nest, enumerated; each one is a body entry."""
    tuples = itertools.product(range(1, n + 1), repeat=depth)
    return sum(1 for t in tuples if all(outer >= inner for outer, inner in zip(t, t[1:])))


@settings(deadline=None)  # the oracle walks up to 12**5 candidate tuples per example
@given(st.integers(1, 5), st.integers(0, 12))
def test_simulate_counts_every_index_tuple(depth, n):
    assert simulate(chain_program(depth), n) == body_entries(depth, n)


def test_simulate_four_loops_of_hundred():
    assert simulate(parse(FOUR_LOOPS), 100) == 4421275


def test_simulate_edge_bounds():
    for depth in range(1, 5):
        assert simulate(chain_program(depth), 1) == 1
        assert simulate(chain_program(depth), 0) == 0


def test_simulate_has_no_depth_limit():
    assert simulate(chain_program(3000), 1) == 1
    # C(3001, 3000): with two values per loop, thousands of stack levels hold a growing chunk
    assert simulate(chain_program(3000), 2) == 3001


def test_simulate_is_the_iterated_sum_one_level_down():
    for depth in range(1, 8):
        for n in range(0, 16):
            assert simulate(chain_program(depth), n) == nested_sum(n, depth - 1), (depth, n)


def test_simulate_budget_is_the_exact_projection():
    for depth in range(2, 6):
        for n in (1, 7, 20):
            made, summed = math.comb(n + depth - 2, depth - 2), math.comb(n + depth - 2, depth - 1)
            projected = oracle._RANGE_COST * made + summed + oracle._CALL_COST
            entries = math.comb(n + depth - 1, depth)
            assert simulate(chain_program(depth), n, budget=projected) == entries
            with pytest.raises(BudgetExceededError) as caught:
                simulate(chain_program(depth), n, budget=projected - 1)
            assert caught.value.projected == projected
    # one loop makes no range: its count is the bound itself
    assert simulate(chain_program(1), 10**9, budget=1) == 10**9


def test_simulate_calls_no_closed_form(monkeypatch):
    def closed_form(*args):
        raise AssertionError("simulate must not call the closed form")

    monkeypatch.setattr(core, "termirial_p", closed_form)
    monkeypatch.setattr(loopnest, "termirial_p", closed_form)
    assert simulate(parse(FOUR_LOOPS), 100) == 4421275
    with pytest.raises(BudgetExceededError):
        simulate(parse(FOUR_LOOPS), 100, budget=1000)


def test_simulate_refuses_a_deep_chain_before_any_work():
    # C(3001, 2998) = 4.5 * 10**9 ranges at n = 3; n = 2 makes 4.5 * 10**6 and runs
    prog = chain_program(3000)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        simulate(prog, 3)
    assert time.perf_counter() - start < 1


def test_simulate_budget_guard():
    with pytest.raises(BudgetExceededError):
        simulate(chain_program(4), 100, budget=1000)
    with pytest.raises(ValueError):
        simulate(chain_program(2), -1)
