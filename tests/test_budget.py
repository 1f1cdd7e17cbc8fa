"""The shared bit-length floor and the value cost projected from it."""

import math

from hypothesis import given
from hypothesis import strategies as st

from termirial.budget import VALUE_CALL, VALUE_MAKE, VALUE_PRINT, floor_bits, value_cost


@given(st.integers(0, 10**30), st.integers(0, 2000), st.booleans())
def test_floor_bits_bounds_the_bit_length(N, k, central):
    if central:
        N = 2 * k + N % 3  # at or next to the middle of the row, where the floor is loosest
    k = min(k, N)
    kk = min(k, N - k)
    bits = math.comb(N, k).bit_length()
    assert bits - (4 * kk + 1) <= floor_bits(N, k) <= bits


def test_floor_bits_edges():
    assert floor_bits(10, 0) == floor_bits(10, 10) == 0  # C(N, 0) = C(N, N) = 1
    assert floor_bits(3, 5) == floor_bits(-1, 0) == 0  # k > N, and order -1's C(n-1, 0) at n = 0
    assert floor_bits(2**64, 1) == 64
    assert floor_bits(2000, 1000) == 1000 and floor_bits(2000, 1500) == floor_bits(2000, 500) == 1000


def test_value_cost_terms():
    assert value_cost(10, 0) == value_cost(3, 5) == VALUE_CALL  # a value of one bit or a zero
    b = floor_bits(10**400 + 499, 501) + 501
    assert value_cost(10**400 + 499, 501) == VALUE_CALL + 501 * b // VALUE_MAKE + b * b // VALUE_PRINT
    assert value_cost(10**400 + 499, 501) == value_cost(10**400 + 499, 10**400 - 2)  # C(N, k) = C(N, N-k)
    assert value_cost(0, 0, 10**6) == VALUE_CALL + 10**12 // VALUE_PRINT  # 2**p, made by a shift


@given(st.integers(1, 10**6), st.integers(-1, 10**4), st.integers(0, 100), st.integers(0, 100))
def test_the_top_corner_bounds_the_cost(n, p, dn, dp):
    # a sweep charges its top corner; the floor's steps let the cost dip by up to 1.41x as n or p grows
    assert 2 * value_cost(n + p, p + 1) <= 3 * value_cost(n + dn + p + dp, p + dp + 1)
