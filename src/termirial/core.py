"""Exact integer kernel: the binomial and the termirial operator.

The order-p termirial of n is the p-fold iterated sum 1 + 2 + ... carried
up to n: order 1 is the triangular number n*(n+1)/2, order 2 the
tetrahedral number, and so on (the (p+1)-simplicial polytopic numbers).
Order 0 is n itself and order -1 is the constant 1.  Everything here is
plain Python int arithmetic, so results are exact at any size, and every
function is pure.  Single values come from the stdlib's exact math.comb,
except in a range of sizes where a product of prime powers is faster (_comb).
The convolution terms need whole rows termirial_p(n, -1..p), so they walk
each row by its exact ratio instead of making one binomial per entry; the
independent cross-check lives in `oracle`.
"""

import itertools
import math

MIN_ORDER = -1
_COMB_FLOOR = 1000  # below this min(k, n-k), math.comb is faster than _prime_power_product


def _check_count(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")


def _check_order(p: int) -> None:
    if p < MIN_ORDER:
        raise ValueError(f"order must be >= {MIN_ORDER}, got {p}")


def binomial(n: int, k: int) -> int:
    """C(n, k) for k <= n, 0 for k > n."""
    _check_count("n", n)
    _check_count("k", k)
    return math.comb(n, k) if k < _COMB_FLOOR else _comb(n, k)  # below the floor, _comb would call math.comb too


def termirial(n: int) -> int:
    """Triangular number n*(n+1)/2, the order-1 termirial."""
    _check_count("n", n)
    return n * (n + 1) // 2


def termirial_p(n: int, p: int) -> int:
    """Order-p termirial of n, C(n+p, p+1).

    termirial_p(n, 0) == n, termirial_p(n, -1) == 1, and the n = 0
    boundary yields 0 for p >= 0.  Order -1 is the constant 1 because the
    formal form C(n-1, 0) is undefined at n = 0.
    """
    _check_count("n", n)
    _check_order(p)
    if p == MIN_ORDER:
        return 1
    return math.comb(n + p, p + 1) if p + 1 < _COMB_FLOOR else _comb(n + p, p + 1)  # as in binomial


def _comb(n: int, k: int) -> int:
    """C(n, k) as a product for j = min(k, n-k) >= 1000, j*j >= 32n and n <= 10**8 (faster there), else by math.comb.

    Past n = 10**8 the product's n/2-byte sieve would dwarf most values, and math.comb's memory follows the value.
    """
    j = min(k, n - k)
    return math.comb(n, k) if j < _COMB_FLOOR or j * j < 32 * n or n > 10**8 else _prime_power_product(n, j)


def _prime_power_product(n: int, j: int) -> int:
    """C(n, j) for 0 <= j <= n as a product of prime powers, with no division.

    math.comb divides at every level, in quadratic time.  A prime q <= r = max(j, isqrt(n)) divides
    C(n, j) sum(n//q**i - j//q**i - (n-j)//q**i) times, the carries of j + (n-j) in base q (Kummer).
    A prime q > r divides it once exactly when a multiple i*q lies in (n-j, n], so for i = 1..n//(r+1)
    the primes in (max((n-j)//i, r), n//i] are read off one sieve of the odd numbers up to n.
    """
    r = max(j, math.isqrt(n))
    sieve = bytearray([1]) * ((n + 1) // 2)  # sieve[v // 2] is 1 when the odd number v is prime
    for q in range(3, math.isqrt(n) + 1, 2):
        if sieve[q // 2]:  # cross out the odd multiples of q from q*q on, which lie q entries apart
            sieve[q * q // 2 :: q] = bytearray(len(range(q * q // 2, len(sieve), q)))  # stored uncopied, unlike bytes
    factors = []
    for q in itertools.chain((2,), itertools.compress(range(3, r + 1, 2), sieve[1 : (r + 1) // 2])):
        e, power = 0, q
        while power <= n:
            e += n // power - j // power - (n - j) // power
            power *= q
        if e:
            factors.append(q**e)
    for i in range(1, n // (r + 1) + 1):
        lo, hi = (max((n - j) // i, r) + 1) // 2, (n // i + 1) // 2  # sieve indices of those odd primes
        factors += itertools.compress(range(2 * lo + 1, 2 * hi + 1, 2), sieve[lo:hi])
    while len(factors) > 1:  # a balanced product tree: the two sides of each multiply are of one size
        factors = [a * b for a, b in zip(factors[::2], factors[1::2] + [1])]
    return math.prod(factors)  # the one factor left, or 1 when there was none


def pascal_check(n: int, p: int) -> tuple[int, int]:
    """Both sides of the termirial Pascal rule, for callers to compare.

    lhs = termirial_p(n+1, p) + termirial_p(n, p+1)
    rhs = termirial_p(n+1, p+1)

    Two binomials are made: termirial_p(n+1, p) = C(n+p+1, p+1) and the
    right side C(n+p+2, p+2).  The other left term C(n+p+1, p+2) is the
    first one times n/(p+2), the exact ratio of neighbours in one row of
    Pascal's triangle, so the check still compares values computed at
    different arguments.  Returned as a pair rather than a bool so
    failures stay diagnosable.
    """
    near = termirial_p(n + 1, p)
    _check_count("n", n)
    lhs = near + near * n // (p + 2)
    rhs = termirial_p(n + 1, p + 1)
    return lhs, rhs


def _order_row(n: int, p: int) -> list[int]:
    """termirial_p(n, i) for i = -1..p: 1, n, C(n+1, 2), ..., C(n+p, p+1).

    Each entry is the previous one times (n+i), divided by (i+1); the
    division is exact because the partial value is a binomial.
    """
    row = [1]
    for i in range(p + 1):
        row.append(row[-1] * (n + i) // (i + 1))
    return row


def convolution_terms(n: int, m: int, p: int) -> list[int]:
    """The p+2 products termirial_p(n, i) * termirial_p(m, p-i-1), i = -1..p.

    The order is split across the two arguments the way the binomial
    theorem splits an exponent; the terms sum to termirial_p(n+m, p).
    At p = 1 the terms read [termirial(m), n*m, termirial(n)] and at
    p = 2 they are the four-way split of the tetrahedral number.  Both
    factors come from one order row each, the m row read backwards.
    """
    _check_order(p)
    _check_count("n", n)
    _check_count("m", m)
    return [a * b for a, b in zip(_order_row(n, p), reversed(_order_row(m, p)))]
