"""Brute-force oracles: the running product, literal iterated sums, and
explicit subset listings.

Everything here recomputes termirial values the slow, obviously-correct
way and imports nothing from `core`, so the closed form there can be
checked against an independent path.  Calls that would grind forever
raise BudgetExceededError instead of hanging; the budget is a per-call
argument, never global state.
"""

import gc
import math
from itertools import chain, combinations, groupby, islice, repeat
from operator import countOf, itemgetter

from .budget import DEFAULT_STEP_BUDGET, check_budget, check_floor, record, short

# sigma levels summed by one pipeline of C iterators, each nesting a few C calls
_C_LEVELS = 32
_CHUNK = 4096  # bounds per stack entry above that pipeline
# _iterated_sum's cost in summed elements per range looked up and per call.  Over 83
# calls, n in 2..400 and p in 1..30 (best of 5, Python 3.11.7, 2-CPU Xeon), time per
# unit stays within 5x (3.5-4.5x in three runs), tiny calls too.
_RANGE_COST = 15
_CALL_COST = 150
# a subset walk's cost in that unit, per subset and per leading-element group, plus one per two index writes: the
# walk rewrites every index right of the one it steps, C(n+1, p) - 1 in all, n/2 per subset near p = n (README)
_SUBSET_COST, _GROUP_COST = 4, 115
_POOL_COST = 100  # per element of the pool combinations copies {1..n} into: its int, its slot, an index (README)
_HOLD_COST = 5  # per bit of n in each element of a held subset, and 50 times it per subset: tuple and text (README)


def termirial_product(n: int, p: int) -> int:
    """Order-p termirial of n as the running product prod (n+i)/(i+1), i = 0..p.

    The partial value after step i is C(n+i, i+1), so every division is
    exact.  The empty product gives 1 at p = -1, and the i = 0 factor
    gives 0 at n = 0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if p < -1:
        raise ValueError(f"order must be >= -1, got {p}")
    out = 1
    for i in range(p + 1):
        out = out * (n + i) // (i + 1)
    return out


def nested_sum(n: int, p: int, budget: int = DEFAULT_STEP_BUDGET) -> int:
    """Iterated sum with exactly p sigma levels; p = 0 is n itself.

    Adds every innermost index one at a time, so it shares no code with the
    closed forms and no depth limit applies; _iterated_sum guards the budget.
    """
    if p < 0:
        raise ValueError(f"nested_sum needs p >= 0 sigma levels, got {p}")
    return _iterated_sum(n, p, budget, f"nested_sum({{n}}, {p})")


def _iterated_sum(n: int, p: int, budget: int, what: str) -> int:
    """Every innermost index of p sigma levels over 1..n, added one at a time.

    The innermost min(p, _C_LEVELS) levels are one lazy pipeline of C
    iterators; outer levels sit on an explicit stack, _CHUNK bounds per
    entry, so C calls nest at most _C_LEVELS levels and nothing recurses.
    Each level looks its bounds up in one dict, which holds the count-down
    range of every bound, made once per call: n + 1 of them, or one at p = 1.
    p = 0 does no work.  Else R = C(n+p-1, p-1) range lookups sum R*n/p elements,
    and a call whose _RANGE_COST*R + R*n/p + _CALL_COST passes budget is refused
    first, on a lower bound when that passes 4,300 digits.  what names the call,
    with {n} for n.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if p == 0:
        return n
    check_floor(n, p, budget, what)  # the C(n+p-1, p) elements summed, without the exact binomial
    ranges = math.comb(n + p - 1, p - 1)
    check_budget(_RANGE_COST * ranges + ranges * n // p + _CALL_COST, budget, what.format(n=n))
    keys = range(n, -1 if p > 1 else n - 1, -1)  # n, ..., 0 may be looked up; n alone at p = 1
    count_down = dict(zip(keys, map(range, keys, repeat(0), repeat(-1)))).__getitem__
    total = 0
    stack = [(p, iter((n,)))]
    while stack:
        levels, bounds = stack.pop()
        if levels <= _C_LEVELS:
            for _ in range(levels - 1):
                bounds = chain.from_iterable(map(count_down, bounds))
            total += sum(map(sum, map(count_down, bounds)))
            continue
        chunk = list(islice(bounds, _CHUNK))
        if len(chunk) == _CHUNK:
            stack.append((levels, bounds))
        if chunk:
            stack.append((levels - 1, chain.from_iterable(map(count_down, chunk))))
    return total


def _walk(n: int, p: int, budget: int, consume, hold: int = 0):
    """consume(the p-subsets of {1..n}, lazily) once their walk, charged as the constants above say and hold more per
    subset, fits budget, with the cyclic garbage collector paused process-wide (tuples of ints form no cycle) and then
    restored."""
    what = f"subsets({short(n)}, {short(p)})"
    check_floor(n - p + 1, p, budget, what)  # C(n, p) = C((n-p+1)+p-1, p), refused on a floor past 4,300 digits
    walk = (_SUBSET_COST + hold) * math.comb(n, p) + math.comb(n + 1, p) // 2 + _GROUP_COST * max(n - p + 1, 0)
    walk += _POOL_COST * n
    check_budget(walk, budget, what)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return consume(combinations(range(1, n + 1), p))
    finally:
        (gc.enable if enabled else gc.disable)()


def subsets(n: int, p: int, budget: int = DEFAULT_STEP_BUDGET) -> list[tuple[int, ...]]:
    """All p-element subsets of {1..n} in lexicographic order.

    Each subset is an ascending tuple; the list length is C(n, p).
    """
    if n < 0 or p < 0:
        raise ValueError(f"subsets needs n >= 0 and p >= 0, got ({n}, {p})")
    return _walk(n, p, budget, list, _HOLD_COST * (p * n.bit_length() + 50))


class Decomposition(record("Decomposition", "n p groups")):
    """p-subsets of {1..n} grouped by smallest element.

    groups holds (leading element, count) pairs in ascending leading
    order; the count for leading element s is C(n-s, p-1), because fixing
    s leaves a (p-1)-subset of the n-s larger values.
    """

    __slots__ = ()


def decompose_by_leading(n: int, p: int, budget: int = DEFAULT_STEP_BUDGET) -> Decomposition:
    """Group the p-subsets of {1..n} by smallest element.

    For p = 2 the counts read n-1, n-2, ..., 1 (a triangular cascade);
    for p = 3 they are the triangular numbers in descending order, so
    each binomial coefficient decomposes into lower-order termirials.
    Every subset is enumerated literally, but streamed: lexicographic order keeps each leading
    element's subsets contiguous, so only their leading elements are read, and each run of equal
    ones is counted in C by operator.countOf; no subset is held in a list, and the cyclic garbage
    collector is paused during the walk, as in subsets.
    """
    if not 1 <= p <= n:
        raise ValueError(f"decompose_by_leading needs 1 <= p <= n, got ({n}, {p})")
    def count(walk):
        return tuple((leading, countOf(run, leading)) for leading, run in groupby(map(itemgetter(0), walk)))
    return Decomposition(n=n, p=p, groups=_walk(n, p, budget, count))
