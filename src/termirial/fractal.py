"""Grey-square figures whose cell counts are termirial values.

The size-n figure is a stack of left-aligned grey rows, held as its row
lengths from bottom to top.  At order 0 it is one row of n unit cells.
Each next order halves the cell side and stacks the previous-order
figures for 1..n as bands, so the grey-cell count is termirial_p(n, p).
Like chain nests, figures compose: rows(n, a+b) is rows(j, b) for each
row j of rows(n, a), and rows(j, b) is the first C(j+b-1, b) rows of
rows(n, b) for b >= 1, so rows(n, a) is the top C(n+a-1, a) rows of
rows(n, p) for 1 <= a <= p.  Halving the side quarters a cell's area, so
the surface ratio of consecutive orders is 4*(n+p)/(p+1), which falls to
4 as the order grows; its base-2 log is the dimension estimate, toward 2.
"""

import math
from functools import reduce
from operator import iadd

from .budget import DEFAULT_CELL_BUDGET, check_budget, check_floor, floor_bits, record
from .core import termirial_p

SVG_CELL_PX = 10
SVG_FILL = "#808080"


class FractalFigure(record("FractalFigure", "n p rows")):
    """Order-p figure for n on a 2^p-per-unit grid: rows[y] grey cells in row y from the bottom, from column 0."""

    __slots__ = ()

    @property
    def width(self) -> int:
        return self.n

    @property
    def height(self) -> int:
        return len(self.rows)


def build(n: int, p: int, budget: int = DEFAULT_CELL_BUDGET) -> FractalFigure:
    """Construct the order-p figure for n.

    Raises BudgetExceededError when the figure would hold more than budget cells.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p < 0:
        raise ValueError(f"order must be >= 0, got {p}")
    what = f"grey cells of figure ({{n}}, {p})"
    check_floor(n, p + 1, budget, what)  # termirial_p(n, p) = C(n+p, p+1), a floor first
    check_budget(termirial_p(n, p), budget, what.format(n=n))
    return FractalFigure(n=n, p=p, rows=(n,) if p == 0 else tuple(_compose(tuple(range(1, n + 1)), p)))


def _compose(seq, p: int, rows=None):
    """seq, the n order-1 rows bottom first (lengths or lines), composed to order p: past p's leading bit, each bit
    composes order q with itself, and a 1 bit then with order 1.  Each row k of rows(n, a), read from the top of
    rows (or of the composed lengths when rows is None), becomes rows(k, q).  Each step extends one list by its
    prefix slices, a pointer copy in C per slice, so the result is a list (seq itself at p = 1)."""
    n, q = len(seq), 1
    for bit in bin(p)[3:]:
        for a in (q, 1)[: 1 + int(bit)]:
            tops = (seq[: math.comb(k + q - 1, q)] for k in range(n + 1))  # rows(k, q), each once
            if a > 1:  # rows(n, a) repeats lengths, so each prefix is sliced once
                tops = map(list(tops).__getitem__, (seq if rows is None else rows)[-len(seq) :])
            seq, q = reduce(iadd, tops, []), q + a
    return seq


class SurfaceReport(record("SurfaceReport", "n p ratio dimension_estimate measured")):
    """Grey-surface ratio between orders p-1 and p, and its log2 reading.

    ratio is the Fraction 4*(n+p)/(p+1): the order-(p-1) figure keeps cells
    of twice the side, so the ratio is the cell-count ratio times the 4x
    area refinement.  dimension_estimate is its float log2.  measured is
    True when both figures fit the cell budget and the ratio was
    cross-checked against actual builds.
    """

    __slots__ = ()


def surface_report(n: int, p: int, budget: int = DEFAULT_CELL_BUDGET) -> SurfaceReport:
    """Surface ratio of the (n, p) figure against the (n, p-1) figure.

    Within the cell budget the ratio is measured from two built figures
    and must equal the closed form exactly as rationals; past the budget,
    which n or the count's bit-length floor shows before the count is made,
    only the closed form is reported, so large-order estimates are cheap.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p < 1:
        raise ValueError(f"the ratio compares order p to p-1, so p must be >= 1, got {p}")
    from fractions import Fraction  # only the report needs it, and it loads decimal
    closed = Fraction(4 * (n + p), p + 1)
    measured = n <= budget and floor_bits(n + p, p + 1) < budget.bit_length() and termirial_p(n, p) <= budget
    if measured:
        measured_ratio = 4 * Fraction(sum(build(n, p, budget=budget).rows), sum(build(n, p - 1, budget=budget).rows))
        if measured_ratio != closed:
            raise AssertionError(f"measured ratio {measured_ratio} != closed form {closed} at ({n}, {p})")
    try:
        estimate = math.log2(closed)
    except OverflowError:  # past float range; the logs of its two ints never are
        estimate = math.log2(closed.numerator) - math.log2(closed.denominator)
    return SurfaceReport(n=n, p=p, ratio=closed, dimension_estimate=estimate, measured=measured)


def render(fig: FractalFigure, fmt: str = "ascii") -> str:
    """Render a figure as an ASCII grid or a minimal SVG document.

    Output is deterministic: '#' for grey and '.' for empty in ASCII, top
    row first; in SVG one rect per grey cell, in sorted (x, y) order.
    ASCII composes the lines of the top n rows as build composes their lengths, or at 2 < p < n the n staircase
    texts to order p-1, and joins once; SVG joins each column (one slice per staircase at 0 < 4p < n), then all.
    """
    if fmt == "ascii":  # the top n rows are the n order-1 rows, or at order 0 the one row of any width
        lines, p = ["#" * k + "." * (fig.n - k) for k in fig.rows[-fig.n :]], fig.p
        if 2 < p < fig.n:  # row j of order p-1 becomes staircase rows(j, 1): top first, the order-1 text's last j lines
            text = "\n".join(reversed(lines))
            lines, p = [text[i:] for i in range(len(text) - fig.n, -1, -fig.n - 1)], p - 1
        lines = _compose(lines, p, fig.rows)
        lines.reverse()
        return "\n".join(lines)
    if fmt == "svg":
        return _render_svg(fig)
    raise ValueError(f"unknown format {fmt!r}; expected 'ascii' or 'svg'")


def _render_svg(fig: FractalFigure) -> str:
    w, h = fig.width * SVG_CELL_PX, fig.height * SVG_CELL_PX
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" width="{w}" height="{h}">']
    # Column x lists its cells' pixel y, bottom row first: sorted (x, y) order.
    columns: list[list[str]] = [[] for _ in range(fig.width)]
    ys, s = list(map(str, range(h - SVG_CELL_PX, -1, -SVG_CELL_PX))), 0  # each row's pixel y
    if 0 < 4 * fig.p < fig.n:  # the staircases, rows j of order p-1, are long enough to beat one append per cell
        for j in fig.rows[-math.comb(fig.n + fig.p - 2, fig.p - 1) :]:  # from row s, column x < j takes s+x..s+j-1
            for x in range(j):
                columns[x] += ys[s + x : s + j]
            s += j
    else:
        for length, y in zip(fig.rows, ys):
            for column in columns[:length]:
                column.append(y)
    tail = f'" width="{SVG_CELL_PX}" height="{SVG_CELL_PX}" fill="{SVG_FILL}" stroke="#000000" stroke-width="1"/>'
    for x, pys in enumerate(columns):
        head = f'\n  <rect x="{x * SVG_CELL_PX}" y="'
        parts += head, (tail + head).join(pys), tail
    parts.append("\n</svg>")
    return "".join(parts)
