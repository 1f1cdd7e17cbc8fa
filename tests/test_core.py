"""Kernel values and identity sweeps.

The kernel is math.comb, so expected values come from routes that do not
use it: hand-checked constants, Pascal's triangle built by addition, the
oracle's running product, and literal summation loops inline.  The
convolution terms are built from exact ratio rows instead, so math.comb,
through termirial_p, is an independent check on them.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from termirial.core import (
    binomial,
    convolution_terms,
    pascal_check,
    termirial,
    termirial_p,
)
from termirial.oracle import termirial_product

COUNTS = st.integers(0, 200)
ORDERS = st.integers(-1, 60)


def test_binomial_known_values():
    assert binomial(5, 2) == 10
    assert binomial(103, 4) == 4421275


def test_binomial_edges():
    for n in range(0, 12):
        assert binomial(n, 0) == 1
        assert binomial(n, n) == 1
        assert binomial(n, n + 1) == 0
    assert binomial(3, 30) == 0


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_binomial_matches_pascal_triangle_and_symmetry():
    row = [1]
    for n in range(0, 41):
        for k, value in enumerate(row):
            assert binomial(n, k) == value, (n, k)
            assert binomial(n, n - k) == value, (n, k)
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]


def test_triangular_values():
    assert termirial(4) == 10
    assert termirial(1) == 1
    assert termirial(100) == 5050  # sum(range(1, 101))


def test_triangular_doubling_identity():
    for n in range(1, 51):
        assert 2 * termirial(n) == n * (n + 1)


def test_triangular_is_order_one():
    for n in range(0, 60):
        assert termirial(n) == termirial_p(n, 1)


def test_termirial_p_known_values():
    assert termirial_p(4, 2) == 20
    assert termirial_p(100, 3) == 4421275


def test_termirial_p_low_orders():
    for n in range(1, 31):
        assert termirial_p(n, -1) == 1
        assert termirial_p(n, 0) == n
    for p in range(-1, 13):
        assert termirial_p(1, p) == 1


def test_termirial_p_zero_boundary():
    # documented extension: the empty sum reads 0, the constant order reads 1
    assert termirial_p(0, -1) == 1
    for p in range(0, 10):
        assert termirial_p(0, p) == 0


def test_termirial_p_rejects_bad_arguments():
    with pytest.raises(ValueError):
        termirial_p(4, -2)
    with pytest.raises(ValueError):
        termirial_p(-1, 2)


def test_closed_form_matches_product_and_literal_sum():
    summed = [1] * 30  # order -1 at n = 1..30; each order is the running sum of the one below
    for p in range(-1, 9):
        for n, expected in enumerate(summed, start=1):
            assert termirial_p(n, p) == termirial_product(n, p) == expected, (n, p)
        summed = list(itertools.accumulate(summed))
    # order -1 is 1 by definition; at n = 0 the formal C(-1, 0) is undefined
    assert termirial_p(0, -1) == termirial_product(0, -1) == 1


def test_summation_recurrence():
    for n in range(1, 31):
        for p in range(0, 7):
            assert termirial_p(n, p) == sum(termirial_p(k, p - 1) for k in range(1, n + 1))


def test_strictly_increasing_in_n_and_order():
    for n in range(2, 21):
        for p in range(0, 9):
            assert termirial_p(n + 1, p) > termirial_p(n, p)
            assert termirial_p(n, p + 1) > termirial_p(n, p)
    # n = 1 is flat across orders
    for p in range(-1, 9):
        assert termirial_p(1, p + 1) >= termirial_p(1, p)


def test_pascal_rule_examples():
    assert pascal_check(3, 1) == (20, 20)  # 10 + 10 on the left
    assert pascal_check(1, 0) == (3, 3)  # 2 + 1 on the left
    for n in range(1, 20):
        assert pascal_check(n, -1) == (1 + n, n + 1)


def test_pascal_rule_sweep():
    for n in range(1, 51):
        for p in range(-1, 11):
            lhs, rhs = pascal_check(n, p)
            assert lhs == rhs, (n, p)


def test_pascal_rule_sides_are_the_running_product():
    # both sides are termirial_p(n+1, p+1), here from the oracle's product, which shares no code with core
    for n, p in [*itertools.product(range(31), range(-1, 13)), (10**5, 3000)]:
        assert pascal_check(n, p) == (termirial_product(n + 1, p + 1),) * 2, (n, p)


@pytest.mark.parametrize("n, p", [(-1, 0), (-1, -1), (-2, 3), (0, -2)])
def test_pascal_check_rejects_bad_arguments(n, p):
    with pytest.raises(ValueError):
        pascal_check(n, p)


def test_convolution_example():
    terms = convolution_terms(2, 2, 2)
    assert terms == [4, 6, 6, 4]
    assert sum(terms) == termirial_p(4, 2) == 20


def test_convolution_term_count():
    for p in range(-1, 10):
        assert len(convolution_terms(3, 4, p)) == p + 2


def test_convolution_order_one_terms():
    for n in range(1, 20):
        for m in range(1, 20):
            assert convolution_terms(n, m, 1) == [m * (m + 1) // 2, n * m, n * (n + 1) // 2]


def test_convolution_order_minus_one():
    for n in range(1, 10):
        for m in range(1, 10):
            assert convolution_terms(n, m, -1) == [1]
            assert termirial_p(n + m, -1) == 1


def test_convolution_sums_to_whole():
    for n in range(1, 16):
        for m in range(1, 16):
            for p in range(-1, 8):
                assert sum(convolution_terms(n, m, p)) == termirial_p(n + m, p), (n, m, p)


def test_convolution_at_order_one_thousand():
    assert sum(convolution_terms(909, 1010, 1000)) == termirial_p(1919, 1000)


@pytest.mark.parametrize("n, m, p", [(-1, 0, -1), (0, -1, -1), (-1, 3, 4), (3, -1, 4), (2, 2, -2), (-1, -1, -2)])
def test_convolution_rejects_bad_arguments(n, m, p):
    with pytest.raises(ValueError):
        convolution_terms(n, m, p)


def test_split_identity_order_one():
    for n in range(1, 51):
        for m in range(1, 51):
            assert termirial(n + m) == termirial(n) + n * m + termirial(m)


def test_split_identity_order_two():
    # four-term split of the tetrahedral number
    for n in range(1, 51):
        for m in range(1, 51):
            whole = termirial_p(n + m, 2)
            assert whole == termirial_p(n, 2) + n * termirial(m) + m * termirial(n) + termirial_p(m, 2)


def test_identities_hold_at_zero_boundary():
    # not required on the positive domain, but the n = 0 extension keeps them true
    for m in range(0, 9):
        assert termirial(0 + m) == termirial(0) + 0 * m + termirial(m)
        for p in range(-1, 6):
            assert sum(convolution_terms(0, m, p)) == termirial_p(m, p)
            lhs, rhs = pascal_check(0, p)
            assert lhs == rhs


@given(COUNTS, ORDERS)
def test_closed_form_matches_running_product(n, p):
    assert termirial_p(n, p) == termirial_product(n, p)


@given(COUNTS, ORDERS)
def test_pascal_rule_property(n, p):
    lhs, rhs = pascal_check(n, p)
    assert lhs == rhs


@given(COUNTS, COUNTS, ORDERS)
def test_convolution_property(n, m, p):
    assert sum(convolution_terms(n, m, p)) == termirial_p(n + m, p)


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-1, 80))
def test_convolution_terms_are_the_factor_products(n, m, p):
    terms = convolution_terms(n, m, p)
    assert len(terms) == p + 2
    for i in range(-1, p + 1):
        assert terms[i + 1] == termirial_p(n, i) * termirial_p(m, p - i - 1), i


@given(COUNTS, st.integers(0, 60))
def test_summation_recurrence_property(n, p):
    assert termirial_p(n, p) == sum(termirial_p(k, p - 1) for k in range(1, n + 1))
