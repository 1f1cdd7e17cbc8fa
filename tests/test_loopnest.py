"""Loop-nest DSL: parsing, error positions, analysis, and the simulator."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
