"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run `pytest -s tests/test_acceptance.py` to see the lines.  Tolerances
are pinned: every identity is exact, the large-order dimension estimate
must land within 0.01 of 2, and the timed paths keep their stated
wall-clock limits.
"""

import io
import sys
import time
from fractions import Fraction

import pytest

from termirial.cli import main
from termirial.core import (
    binomial,
    convolution_terms,
    pascal_check,
    termirial,
    termirial_p,
)
from termirial.fractal import build, surface_report
from termirial.loopnest import analyze, parse, simulate
from termirial.oracle import decompose_by_leading, nested_sum, subsets

from test_loopnest import FOUR_LOOPS, MALFORMED, chain_program

STEP_BUDGET = 10**8


def test_eval_100_3_prints_4421275_fast(capsys):
    start = time.perf_counter()
    code = main(["eval", "100", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "4421275"
    assert elapsed < 0.1
    print(f"PASS: eval 100 3 prints 4421275, ran in {elapsed * 1000:.1f} ms (< 100 ms)")


def test_triangular_and_tetrahedral_values():
    assert termirial(4) == 10
    assert termirial_p(4, 2) == 20
    print("PASS: termirial(4) = 10 and termirial_p(4, 2) = 20, exact")


def test_oracle_equivalence_sweep():
    start = time.perf_counter()
    checked = skipped = 0
    for n in range(1, 26):
        for p in range(0, 7):
            if n**p > STEP_BUDGET:
                skipped += 1
                continue
            assert nested_sum(n, p, budget=STEP_BUDGET) == termirial_p(n, p) == binomial(n + p, p + 1), (n, p)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"PASS: nested_sum = termirial_p = binomial on {checked} pairs "
        f"({skipped} over budget), {elapsed:.2f} s (< 10 s)"
    )


def test_convolution_theorem_sweep_and_cli(capsys):
    start = time.perf_counter()
    for n in range(1, 16):
        for m in range(1, 16):
            for p in range(-1, 8):
                terms = convolution_terms(n, m, p)
                assert len(terms) == p + 2
                assert sum(terms) == termirial_p(n + m, p), (n, m, p)
    code = main(["check", "newton", "--n", "1..15", "--m", "1..15", "--p", "-1..7"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "all pass" in out
    assert elapsed < 5.0
    print(f"PASS: convolution theorem exact on 2025 triples, check newton exits 0, {elapsed:.2f} s (< 5 s)")


def test_pascal_rule_and_remarkable_identities():
    for n in range(1, 51):
        for p in range(-1, 11):
            lhs, rhs = pascal_check(n, p)
            assert lhs == rhs, (n, p)
    for n in range(1, 51):
        for m in range(1, 51):
            three = [termirial(n), n * m, termirial(m)]
            assert termirial(n + m) == sum(three)
            assert convolution_terms(n, m, 1) == three[::-1]
            four = [termirial_p(n, 2), n * termirial(m), m * termirial(n), termirial_p(m, 2)]
            assert termirial_p(n + m, 2) == sum(four)
            assert convolution_terms(n, m, 2) == [four[3], four[1], four[2], four[0]]
    print(
        "PASS: pascal rule on n<=50, p<=10; order-1 and order-2 splits exact on n,m<=50, "
        "term-by-term equal to the p=1 and p=2 convolutions"
    )


def test_subset_decompositions():
    pair = decompose_by_leading(5, 2)
    assert pair.groups == ((1, 4), (2, 3), (3, 2), (4, 1))
    assert sum(count for _, count in pair.groups) == 10
    triple = decompose_by_leading(5, 3)
    assert triple.groups == ((1, 6), (2, 3), (3, 1))
    assert sum(count for _, count in triple.groups) == 10
    for n in range(0, 13):
        for p in range(0, n + 1):
            assert len(subsets(n, p)) == binomial(n, p), (n, p)
    print("PASS: decompositions 4+3+2+1 and 6+3+1 of C(5,2) and C(5,3); subset counts match C(n,p) for n<=12")


def test_loop_analyzer_against_simulator():
    # chain programs are fixed by their depth up to index renaming
    for depth in range(1, 5):
        prog = chain_program(depth)
        for n in range(0, 31):
            assert simulate(prog, n) == analyze(prog, n=n).exact_count, (depth, n)
    res = analyze(parse(FOUR_LOOPS))
    assert res.exact_count == 4421275
    assert res.theta_exponent == 4
    print("PASS: simulate = analyze for depth<=4, n<=30; four loops of 100 analyze to 4421275, theta exponent 4")


def test_fractal_counts_ratio_and_dimension_limit():
    for n in range(1, 11):
        for p in range(0, 9):
            assert sum(build(n, p).rows) == termirial_p(n, p), (n, p)
    for n in range(1, 11):
        for p in range(1, 9):
            rep = surface_report(n, p)
            assert rep.measured
            assert rep.ratio == Fraction(4 * (n + p), p + 1), (n, p)
    rep = surface_report(4, 500)
    assert abs(rep.dimension_estimate - 2) < 0.01
    print(
        "PASS: grey cells = termirial_p(n, p) for n<=10, p<=8; measured ratio = 4(p+n)/(p+1) exactly; "
        f"dimension at order 500 is {rep.dimension_estimate:.6f} (within 0.01 of 2)"
    )


def test_malformed_corpus_rejected_with_positions(capsys, monkeypatch):
    assert len(MALFORMED) >= 10
    for source, error, line, column, message in MALFORMED:
        with pytest.raises(error) as caught:
            parse(source)
        assert (caught.value.line, caught.value.column, caught.value.message) == (line, column, message), source
        monkeypatch.setattr(sys, "stdin", io.StringIO(source))
        code = main(["loops", "-"])
        err = capsys.readouterr().err
        assert code == 2, source
        assert f"line {line}, column {column}" in err, source
    print(f"PASS: {len(MALFORMED)} malformed programs each rejected with kind, line, column, exit code 2")
