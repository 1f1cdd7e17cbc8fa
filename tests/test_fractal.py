"""Figure construction, the surface ratio, and both render formats.

The figure builder is checked against an independent oracle: the grey
cells as an explicit (x, y) set, built by recursive band stacking, with
renderers that read only that set.
"""

import math
import time
import tracemalloc
from functools import cache
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from termirial.budget import DIGIT_CAP, BudgetExceededError
from termirial.core import termirial_p
from termirial.fractal import SVG_CELL_PX, SVG_FILL, build, render, surface_report


@cache
def oracle_cells(n: int, p: int) -> frozenset[tuple[int, int]]:
    """Stack the order-(p-1) figures for 1..n as bands, bottom to top."""
    if n == 1:
        return frozenset({(0, 0)})  # every band stack of a single cell is that cell
    if p == 0:
        return frozenset((x, 0) for x in range(n))
    cells: set[tuple[int, int]] = set()
    y_offset = 0
    for k in range(1, n + 1):
        band = oracle_cells(k, p - 1)
        cells.update((x, y + y_offset) for x, y in band)
        y_offset += 1 + max(y for _, y in band)
    return frozenset(cells)


def oracle_ascii(cells) -> str:
    width, height = 1 + max(x for x, _ in cells), 1 + max(y for _, y in cells)
    rows = []
    for y in range(height - 1, -1, -1):
        rows.append("".join("#" if (x, y) in cells else "." for x in range(width)))
    return "\n".join(rows)


def oracle_svg(cells) -> str:
    width, height = 1 + max(x for x, _ in cells), 1 + max(y for _, y in cells)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width * SVG_CELL_PX} {height * SVG_CELL_PX}" '
        f'width="{width * SVG_CELL_PX}" height="{height * SVG_CELL_PX}">'
    ]
    for x, y in sorted(cells):
        lines.append(
            f'  <rect x="{x * SVG_CELL_PX}" y="{(height - 1 - y) * SVG_CELL_PX}" '
            f'width="{SVG_CELL_PX}" height="{SVG_CELL_PX}" '
            f'fill="{SVG_FILL}" stroke="#000000" stroke-width="1"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)


def cells_of(fig) -> set[tuple[int, int]]:
    return {(x, y) for y, length in enumerate(fig.rows) for x in range(length)}


# Past n = 10 the x pixels take three digits; (44, 1) and (70, 1) are the
# benchmark's 990-cell and 2,485-cell SVG shapes.  The orders p >> n cross
# the bit boundaries of the build, which doubles the order along p's bits.
ORACLE_SHAPES = [(n, p) for n in range(1, 11) for p in range(0, 9)]
ORACLE_SHAPES += [(1, 50), (11, 1), (44, 1), (70, 1), (12, 3), (20, 2)]
ORACLE_SHAPES += [(2, 31), (2, 32), (2, 33), (3, 30), (4, 20), (5, 12), (1, 1000)]


@pytest.mark.parametrize("n, p", ORACLE_SHAPES)
def test_rows_match_cell_set_oracle(n, p):
    fig = build(n, p)
    cells = oracle_cells(n, p)
    assert cells_of(fig) == cells
    assert (fig.width, fig.height) == (1 + max(x for x, _ in cells), 1 + max(y for _, y in cells))
    assert render(fig) == oracle_ascii(cells)
    assert render(fig, "svg") == oracle_svg(cells)


@pytest.mark.parametrize("n, p", [(n, p) for n, p in ORACLE_SHAPES if p >= 1])
def test_every_lower_order_is_the_top_band(n, p):
    # the render reads rows(n, a) as the figure's top C(n+a-1, a) rows; past order 8, a samples the doubling
    rows = build(n, p).rows
    for a in sorted({*range(1, min(p, 8) + 1), p // 2, p - 1, p} - {0}):
        assert rows[-math.comb(n + a - 1, a) :] == build(n, a).rows, a


def test_order_zero_is_the_top_row_of_order_one():
    for n in (1, 2, 7, 50, 1000):
        assert build(n, 0).rows == build(n, 1).rows[-1:] == (n,)


def _max_order(n: int, cells: int) -> int:
    p = 0
    while p < 64 and termirial_p(n, p + 1) <= cells:
        p += 1
    return p


@settings(deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, _max_order(n, 2 * 10**5)))))
@example((2, 501))
@example((3, 500))
@example((4, 60))
@example((50, 3))  # 2 < p < n: the render composes staircase texts to order p-1
@example((30, 4))
@example((5, 4))
@example((4, 5))  # p >= n: the render composes lines
@example((6, 6))
def test_render_is_the_rows_line_by_line(shape):
    n, p = shape
    fig = build(n, p)
    assert render(fig) == "\n".join("#" * length + "." * (n - length) for length in reversed(fig.rows))


@settings(deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, _max_order(n, 2 * 10**4)))))
@example((44, 1))  # 0 < 4p < n: each column takes one slice per staircase
@example((66, 2))
@example((13, 3))
@example((5, 1))
@example((12, 3))  # 4p >= n or p = 0: one append per cell
@example((8, 3))
@example((7, 3))
@example((7, 6))
@example((4, 3))
@example((4, 1))
@example((4, 60))
@example((100, 0))
def test_svg_is_the_cells_in_sorted_order(shape):
    fig = build(*shape)
    assert render(fig, "svg") == oracle_svg(cells_of(fig))


@settings(deadline=None)
@given(st.one_of(st.tuples(st.integers(1, 12), st.integers(0, 10)), st.tuples(st.integers(1, 3), st.integers(0, 1000))))
def test_row_count_and_cell_count(shape):
    n, p = shape
    fig = build(n, p)
    assert sum(fig.rows) == math.comb(n + p, p + 1)
    assert len(fig.rows) == fig.height == math.comb(n + p - 1, p)


def test_base_order_is_a_row():
    fig = build(4, 0)
    assert fig.rows == (4,)
    assert (fig.width, fig.height) == (4, 1)


def test_band_stacking_layout():
    # order 1 stacks rows of 1..n, largest on top, left-aligned
    assert build(4, 1).rows == (1, 2, 3, 4)
    # order 2 stacks the order-1 figures for 1..4
    assert build(4, 2).rows == (1, 1, 2, 1, 2, 3, 1, 2, 3, 4)


def test_twenty_grey_cells_at_order_two():
    assert sum(build(4, 2).rows) == 20


def test_single_column_any_order():
    for p in (0, 1, 5, 12, 50, 10**6):
        assert build(1, p).rows == (1,)


def test_cell_count_sweep():
    for n in range(1, 11):
        for p in range(0, 9):
            fig = build(n, p)
            assert sum(fig.rows) == termirial_p(n, p), (n, p)
            assert all(1 <= length <= fig.width for length in fig.rows)


def test_build_guards():
    with pytest.raises(ValueError):
        build(0, 1)
    with pytest.raises(ValueError):
        build(3, -1)
    assert sum(build(2, 501).rows) == 503  # no order cap: the cell budget is the one bound
    with pytest.raises(BudgetExceededError) as caught:
        build(10, 8, budget=100)
    assert str(caught.value) == "grey cells of figure (10, 8): projected 48620 exceeds budget 100"


def test_refusal_past_the_digit_cap_is_typed_and_fast():
    # the exact cell count would take seconds, and n alone is 4,300 digits
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as caught:
        build(10**4300 - 1, 500)
    assert time.perf_counter() - start < 0.1
    message = str(caught.value)
    assert len(message) < 200, message
    assert caught.value.projected >= DIGIT_CAP
    assert message.startswith("grey cells of figure (<14285-bit int>, 500): projected <")


def test_the_refusal_floor_is_a_lower_bound():
    with pytest.raises(BudgetExceededError) as caught:
        build(10**100, 150)
    assert DIGIT_CAP <= caught.value.projected <= termirial_p(10**100, 150)


def test_ratio_measured_equals_closed_form():
    for n in range(1, 11):
        for p in range(1, 9):
            rep = surface_report(n, p)
            assert rep.measured
            assert rep.ratio == Fraction(4 * (n + p), p + 1), (n, p)


def test_ratio_example():
    rep = surface_report(4, 1)
    assert rep.ratio == 10
    assert rep.dimension_estimate == math.log2(10)
    assert rep.measured


def test_single_column_ratio_is_flat_four():
    for p in (1, 3, 10, 200):
        rep = surface_report(1, p)
        assert rep.ratio == 4
        assert rep.dimension_estimate == 2.0


def test_ratio_decreases_toward_four():
    # budget=1 forces the closed form, keeping the long sweep cheap
    for n in range(2, 11):
        ratios = [surface_report(n, p, budget=1).ratio for p in range(1, 51)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(r > 4 for r in ratios)


def test_dimension_estimate_varies_with_order():
    assert surface_report(4, 1).dimension_estimate != surface_report(4, 2).dimension_estimate


@pytest.mark.parametrize("n, p, budget", [(4, 1, 9), (4, 1, 10), (2, 600, 602), (2, 600, 601), (4, 250, 10**7), (1, 10**4, 1)])
def test_report_is_measured_exactly_when_the_figure_fits(n, p, budget):
    # the rule of the benchmark's reference check; (2, 600) lies past the old order cap of 500
    start = time.perf_counter()
    rep = surface_report(n, p, budget=budget)
    assert time.perf_counter() - start < 1
    assert rep.measured == (termirial_p(n, p) <= budget)
    assert rep.ratio == Fraction(4 * (n + p), p + 1)


def test_large_order_dimension_limit():
    rep = surface_report(4, 500)
    assert not rep.measured
    assert rep.ratio == Fraction(2016, 501)
    assert abs(rep.dimension_estimate - 2) < 0.01


def test_dimension_estimate_past_float_range():
    # the ratio 2 * 10**400 overflows a float; the logs of its two ints do not
    rep = surface_report(10**400 - 1, 1)
    assert not rep.measured
    assert rep.ratio == 2 * 10**400
    assert math.isclose(rep.dimension_estimate, 1 + 400 * math.log2(10))


def test_report_past_the_budget_skips_the_exact_count():
    # the cell count is at least n, so n past the budget is never measured
    n, p = 10**400 - 1, 10**4
    start = time.perf_counter()
    rep = surface_report(n, p)
    assert time.perf_counter() - start < 0.1
    assert not rep.measured
    assert rep.ratio == Fraction(4 * (n + p), p + 1)
    assert rep.dimension_estimate == math.log2(rep.ratio.numerator) - math.log2(rep.ratio.denominator)


@pytest.mark.parametrize("p", [10**6, 3 * 10**5])
def test_report_skips_the_count_past_its_floor(p):
    # n fits the budget, but C(n+p, p+1) has some 10^6 bits: its bit-length floor refuses it before it is made
    start = time.perf_counter()
    rep = surface_report(10**6, p)
    assert time.perf_counter() - start < 0.1
    assert not rep.measured
    assert rep.ratio == Fraction(4 * (10**6 + p), p + 1)


def test_report_domain():
    with pytest.raises(ValueError):
        surface_report(4, 0)
    with pytest.raises(ValueError):
        surface_report(0, 1)


def test_render_ascii_row():
    assert render(build(2, 0)) == "##"


def test_render_a_single_long_row():
    # A row table sized by width would hold about n^2 / 2 characters here.
    fig = build(20_000, 0)
    tracemalloc.start()
    try:
        text = render(fig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "#" * 20_000
    assert peak < 10 * len(text)
    assert render(build(2_000, 0), "svg") == oracle_svg(oracle_cells(2_000, 0))


@pytest.mark.parametrize(("n", "p"), [(50, 3), (30, 4), (20, 5)])
def test_render_peaks_near_its_output(n, p):
    # the staircase texts, at most 3/(n+2) of the output, are composed as one list, reversed in place and joined once
    fig = build(n, p)
    tracemalloc.start()
    try:
        text = render(fig)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == math.comb(n + p - 1, p) * (n + 1) - 1
    assert peak < 1.5 * len(text)


@pytest.mark.parametrize(("n", "p"), [(44, 1), (66, 2), (30, 4)])
def test_svg_peaks_near_its_output(n, p):
    # each row's pixel y, the columns' pointers and the joined columns, then the document: about 2.1x the output
    fig = build(n, p)
    tracemalloc.start()
    try:
        svg = render(fig, "svg")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert svg.count("<rect ") == math.comb(n + p, p + 1)
    assert peak < 2.5 * len(svg)


@pytest.mark.parametrize(("n", "p"), [(50, 3), (4, 60), (3, 500)])
def test_build_peaks_near_two_pointers_per_row(n, p):
    # each step extends one list, and build copies the last into the figure's tuple: about 16 B per row at peak
    build(n, p)
    tracemalloc.start()
    try:
        fig = build(n, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(fig.rows)


def test_render_ascii_staircase():
    assert render(build(4, 1)) == "####\n###.\n##..\n#..."


def test_render_ascii_grey_count():
    for n in range(1, 8):
        for p in range(0, 5):
            assert render(build(n, p)).count("#") == termirial_p(n, p)


def test_render_is_deterministic():
    assert render(build(4, 2)) == render(build(4, 2))
    assert render(build(4, 2), "svg") == render(build(4, 2), "svg")


def test_render_svg_structure():
    svg = render(build(4, 2), "svg")
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>")
    assert svg.count("<rect ") == 20
    assert svg.count('fill="#808080"') == 20


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(build(2, 1), "png")
