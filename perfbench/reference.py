"""Reference values for checking the package's outputs.

Everything here is built on `math.comb` and plain string counting, so a
check never runs any of the package's own code.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log2


def termirial(n: int, p: int) -> int:
    """Order-p termirial of n: C(n+p, p+1), and 1 at order -1."""
    return 1 if p == -1 else comb(n + p, p + 1)


def figure_height(n: int, p: int) -> int:
    """Rows of the order-p figure for n: the order-(p-1) values for 1..n stacked."""
    return comb(n + p - 1, p)


def surface_ratio(n: int, p: int) -> Fraction:
    return Fraction(4 * (n + p), p + 1)


def check_ascii(text: str, n: int, p: int) -> str | None:
    rows = text.split("\n")
    if len(rows) != figure_height(n, p):
        return f"ASCII has {len(rows)} rows, expected {figure_height(n, p)}"
    if any(len(row) != n for row in rows):
        return f"an ASCII row is not {n} wide"
    grey = text.count("#")
    if grey != termirial(n, p) or grey + text.count(".") != n * len(rows):
        return f"ASCII has {grey} grey cells, expected {termirial(n, p)}"
    return None


def check_svg(text: str, n: int, p: int) -> str | None:
    rects = text.count("<rect")
    if rects != termirial(n, p) or not text.startswith("<svg") or not text.endswith("</svg>"):
        return f"SVG has {rects} rects, expected {termirial(n, p)}"
    return None


def check_report(report, n: int, p: int, budget: int) -> str | None:
    ratio = surface_ratio(n, p)
    if report.ratio != ratio:
        return f"ratio {report.ratio}, expected {ratio}"
    if abs(report.dimension_estimate - log2(ratio)) > 1e-12:
        return f"dimension estimate {report.dimension_estimate}, expected {log2(ratio)}"
    if report.measured != (termirial(n, p) <= budget):
        return f"measured is {report.measured} with {termirial(n, p)} cells against budget {budget}"
    return None
