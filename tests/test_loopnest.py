"""Loop-nest DSL: parsing, error positions, analysis, and the simulator."""

import itertools
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termirial import loopnest
from termirial.budget import BudgetExceededError
from termirial.core import termirial_p
from termirial.loopnest import (
    KEYWORDS,
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

# (source, error class, line, column)
MALFORMED = [
    ("", LoopSyntaxError, 1, 1),
    ("n = 100\n", LoopSyntaxError, 1, 1),
    ("# just a comment\n", LoopSyntaxError, 1, 1),
    ("for", LoopSyntaxError, 1, 4),
    ("for i", LoopSyntaxError, 1, 6),
    ("for i = 2 to n", LoopSyntaxError, 1, 9),
    ("for i = 1 n", LoopSyntaxError, 1, 11),
    ("for i = 1 to 100", LoopSyntaxError, 1, 14),
    ("for i = 1 to n extra", LoopSyntaxError, 1, 16),
    ("for $ = 1 to n", LoopSyntaxError, 1, 5),
    ("n == 100\nfor i = 1 to n", LoopSyntaxError, 1, 4),
    ("n = 100 for i = 1 to n", LoopSyntaxError, 1, 9),
    ("n = 100\nx = 5\nfor i = 1 to n", LoopSyntaxError, 2, 1),
    ("for i = 1 to n\nfor j = 1 to x", UnknownIdentifierError, 2, 14),
    ("m = 3\nfor i = 1 to n", UnknownIdentifierError, 2, 14),
    ("for i = 1 to n\nfor i = 1 to i", DuplicateIndexError, 2, 5),
    ("for i = 1 to n\nfor n = 1 to i", DuplicateIndexError, 2, 5),
    ("for i = 1 to i", DuplicateIndexError, 1, 5),
    ("for i = 1 to n\nfor j = 1 to i\nfor k = 1 to n", NonChainBoundError, 3, 14),
    ("for i = 1 to n\nfor j = 1 to i\nfor k = 1 to i", NonChainBoundError, 3, 14),
    ("for i = 1 to n\nfor j = 1 to j", NonChainBoundError, 2, 14),
    ("n = 5\nfor i = 1 to i", NonChainBoundError, 2, 14),
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
    with pytest.raises(LoopSyntaxError) as caught:
        parse("n = " + "9" * 5000 + "\nfor i = 1 to n")
    assert (caught.value.line, caught.value.column) == (1, 5)
    assert "5000 digits" in caught.value.message


def test_parse_tolerates_whitespace_case_and_comments():
    messy = "  N = 7  # the bound\n\nFOR i = 1 TO N\n\tfor j=1 to i # inner\n"
    assert parse(messy) == parse("N = 7\nfor i = 1 to N\nfor j = 1 to i")


def test_indices_are_case_sensitive():
    with pytest.raises(UnknownIdentifierError):
        parse("for i = 1 to n\nfor j = 1 to I")


@pytest.mark.parametrize("source,error,line,column", MALFORMED)
def test_malformed_input_reports_kind_and_position(source, error, line, column):
    with pytest.raises(error) as caught:
        parse(source)
    assert isinstance(caught.value, LoopNestError)
    assert (caught.value.line, caught.value.column) == (line, column)
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


NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True).filter(lambda name: name.lower() not in KEYWORDS)


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


@pytest.mark.parametrize(
    "line",
    ["for i = 1 to n", "FOR i=1TO n", "  fOr\tI_2 =1to  n  ", "for fort = 1 to tom", "for i = 1 to\tn\t"],
)
def test_for_line_regex_accepts_well_formed_lines(line):
    match = loopnest._FOR_LINE_RE.fullmatch(line)
    tokens = loopnest._tokenize(line, 1)
    assert match and (match["index"], match["bound"]) == (tokens[1].text, tokens[-1].text)
    assert (match.start("index") + 1, match.start("bound") + 1) == (tokens[1].column, tokens[-1].column)


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
        "n = 5",
    ],
)
def test_for_line_regex_rejects_every_other_line(line):
    assert loopnest._FOR_LINE_RE.fullmatch(line) is None


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
def loose_line(draw):
    return draw(GAPS) + "".join(word + draw(GAPS) for word in draw(st.lists(WORDS, max_size=8)))


@st.composite
def nest_sources(draw):
    """A chain of `for` lines in drawn spellings, maybe assigned, with stray lines mixed in."""
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=2, max_size=5, unique=draw(st.integers(0, 3)) > 0))
    bounds = [draw(st.sampled_from(NAME_POOL)) if draw(st.integers(0, 7)) == 0 else name for name in names]
    lines = [draw(for_line(index, bound)) for bound, index in zip(bounds, names[1:])]
    if draw(st.booleans()):
        value = draw(st.sampled_from(["5"] * 6 + ["05", "", "x"]))
        lines.insert(0, draw(GAPS) + names[0] + draw(GAPS) + "=" + draw(GAPS) + value + draw(TAILS))
    if draw(st.integers(0, 2)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(loose_line()))
    return "\n".join(lines)


def parse_outcome(source):
    try:
        return parse(source)
    except LoopNestError as exc:
        return type(exc), exc.message, exc.line, exc.column


@settings(max_examples=300)
@given(nest_sources())
def test_line_regex_agrees_with_the_token_path(source):
    expected = parse_outcome(source)
    with mock.patch.object(loopnest, "_FOR_LINE_RE", re.compile(r"(?!)")):
        assert parse_outcome(source) == expected


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


def test_simulate_budget_is_the_exact_entry_count():
    for depth in range(1, 6):
        for n in (1, 7, 20):
            entries = math.comb(n + depth - 1, depth)
            assert simulate(chain_program(depth), n, budget=entries) == entries
            with pytest.raises(BudgetExceededError):
                simulate(chain_program(depth), n, budget=entries - 1)


def test_simulate_budget_guard():
    with pytest.raises(BudgetExceededError):
        simulate(chain_program(4), 100, budget=1000)
    with pytest.raises(ValueError):
        simulate(chain_program(2), -1)
