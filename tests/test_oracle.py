"""Brute-force oracles: the running product, literal sums, subset listings,
and their guards."""

import ast
import gc
import math
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termirial import oracle
from termirial.budget import DEFAULT_STEP_BUDGET, DIGIT_CAP, BudgetExceededError
from termirial.core import binomial, termirial, termirial_p
from termirial.oracle import decompose_by_leading, nested_sum, subsets, termirial_product


def counts(decomposition):
    return [count for _, count in decomposition.groups]


def test_oracle_imports_nothing_from_core():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
    assert not [name for name in imported if "core" in name.split(".")]


def test_termirial_product_spot_values():
    assert termirial_product(4, 1) == 10
    assert termirial_product(4, 2) == 20
    assert termirial_product(100, 3) == 4421275
    for n in range(1, 25):
        assert termirial_product(n, 0) == n
        assert termirial_product(n, -1) == 1
    assert termirial_product(0, -1) == 1
    for p in range(0, 10):
        assert termirial_product(0, p) == 0


def test_termirial_product_rejects_bad_arguments():
    with pytest.raises(ValueError):
        termirial_product(-1, 2)
    with pytest.raises(ValueError):
        termirial_product(4, -2)


def test_nested_sum_examples():
    assert nested_sum(4, 1) == 10  # 1 + 2 + 3 + 4
    assert nested_sum(4, 2) == 20
    for n in range(0, 30):
        assert nested_sum(n, 0) == n


def test_nested_sum_matches_closed_form():
    for n in range(1, 16):
        for p in range(0, 5):
            assert nested_sum(n, p) == termirial_p(n, p), (n, p)


def test_nested_sum_has_no_depth_limit():
    # far past the C pipeline's depth: uncapped, it would overflow the C stack
    assert nested_sum(1, 5000) == 1
    assert nested_sum(1, 200_000) == 1
    assert nested_sum(0, 200_000) == 0


@pytest.mark.parametrize("n", range(0, 6))
def test_nested_sum_across_the_pipeline_hand_off(n):
    # the innermost _C_LEVELS levels are one C pipeline; deeper ones go on the stack
    for p in range(oracle._C_LEVELS - 2, oracle._C_LEVELS + 4):
        assert nested_sum(n, p) == math.comb(n + p, p + 1), (n, p)


@pytest.mark.parametrize("levels, chunk", [(1, 1), (2, 3), (3, 2)])
def test_iterated_sum_with_small_pipeline_and_chunks(levels, chunk, monkeypatch):
    # shrunk constants send small sums through the stack and refill its chunks
    monkeypatch.setattr(oracle, "_C_LEVELS", levels)
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    for n in range(0, 9):
        for p in range(0, 8):
            assert oracle._iterated_sum(n, p, 10**6, "small") == math.comb(n + p, p + 1), (n, p)


@settings(deadline=None)  # (40, 6) adds about 8 * 10**6 indices
@given(st.integers(0, 40), st.integers(0, 6))
def test_nested_sum_is_the_termirial(n, p):
    assert nested_sum(n, p) == math.comb(n + p, p + 1)


def test_nested_sum_budget_guard():
    # 15 * C(57, 7) ranges + C(57, 8) summed elements + 150 per call
    with pytest.raises(BudgetExceededError) as caught:
        nested_sum(50, 8, budget=10**6)
    assert caught.value.projected == 5_618_199_165
    assert caught.value.budget == 10**6


def test_nested_sum_projects_its_result_count():
    # 6**6 = 46656 would refuse this, but only 792 innermost steps run
    assert nested_sum(6, 6, budget=10**4) == 792


def test_nested_sum_projection_bounds_its_calls():
    # the result C(404, 3) fits the default budget, but the C(403, 399)
    # ranges would not, so the call is refused before it runs
    with pytest.raises(BudgetExceededError) as caught:
        nested_sum(4, 400)
    assert caught.value.projected == 16_251_929_051


class _Counting(dict):
    """The engine's per-call dict of ranges, counting those made, the lookups and their indices."""

    counts = Counter()

    def __init__(self, ranges):
        super().__init__(ranges)
        self.counts["made"] += len(self)

    def __getitem__(self, bound):
        indices = super().__getitem__(bound)
        self.counts.update(R=1, L=len(indices))
        return indices


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13])
def test_projection_is_the_counted_work(n, monkeypatch):
    # R range lookups hold L indices; all but the last level's are the bounds of
    # the R - 1 lookups below the first, so the last level sums E = L - R + 1;
    # each distinct bound's range is made once, and the bounds lie in 0..n
    monkeypatch.setattr(oracle, "dict", _Counting, raising=False)
    counts = _Counting.counts
    for p in range(1, 41):  # for n <= 2, past _C_LEVELS onto the stack
        looked_up, summed = math.comb(n + p - 1, p - 1), math.comb(n + p - 1, p)
        if looked_up > 20_000:
            break
        with pytest.raises(BudgetExceededError) as caught:
            oracle._iterated_sum(n, p, 0, "count")
        projected = caught.value.projected
        counts.clear()
        assert oracle._iterated_sum(n, p, projected, "count") == math.comb(n + p, p + 1), (n, p)
        assert (counts["R"], counts["L"] - counts["R"] + 1) == (looked_up, summed), (n, p)
        assert counts["made"] <= n + 1, (n, p)
        assert projected == oracle._RANGE_COST * looked_up + summed + oracle._CALL_COST, (n, p)


def test_stacked_levels_make_a_range_per_distinct_bound(monkeypatch):
    # past _C_LEVELS the outer levels sit on the stack, and they share the one memo
    monkeypatch.setattr(oracle, "dict", _Counting, raising=False)
    for n, p in [(1, 5000), (2, oracle._C_LEVELS + 40), (3, oracle._C_LEVELS + 3)]:
        _Counting.counts.clear()
        assert oracle._iterated_sum(n, p, 10**8, "deep") == math.comb(n + p, p + 1), (n, p)
        assert _Counting.counts["R"] == math.comb(n + p - 1, p - 1), (n, p)
        assert _Counting.counts["made"] <= n + 1, (n, p)


@pytest.mark.parametrize("n, p", [(10**100, 100), (10**1000, 3000)])
def test_refusal_past_the_digit_cap_is_typed_and_fast(n, p):
    # the exact count of ranges would take seconds and print past 4,300 digits
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as caught:
        nested_sum(n, p, budget=1)
    assert time.perf_counter() - start < 0.1
    message = str(caught.value)
    assert len(message) < 200, message
    # projected is a power-of-two lower bound on the elements summed, past the cap
    floor = caught.value.projected
    assert floor >= DIGIT_CAP and floor & (floor - 1) == 0
    assert message == f"nested_sum(<{n.bit_length()}-bit int>, {p}): projected <{floor.bit_length()}-bit int> exceeds budget 1"


def test_the_refusal_floor_is_a_lower_bound():
    with pytest.raises(BudgetExceededError) as caught:
        nested_sum(10**100, 100, budget=1)
    assert caught.value.projected <= math.comb(10**100 + 99, 100)


def test_refusals_under_the_digit_cap_keep_the_exact_projection():
    # n and the projection short of 4,300 digits: the count is exact, and the message shows it by size
    n = 10**1000
    with pytest.raises(BudgetExceededError) as caught:
        nested_sum(n, 2, budget=1)
    projected = 15 * (n + 1) + (n + 1) * n // 2 + 150
    assert caught.value.projected == projected
    assert str(caught.value) == f"nested_sum({n}, 2): projected <{projected.bit_length()}-bit int> exceeds budget 1"
    # n itself past the cap is refused on n, before its digits are needed
    with pytest.raises(BudgetExceededError) as caught:
        nested_sum(10**5000, 1, budget=10**6)
    assert caught.value.projected == 10**5000
    assert str(caught.value) == "nested_sum(<16610-bit int>, 1): projected <16610-bit int> exceeds budget 1000000"


def test_a_budget_past_the_floor_still_counts_exactly():
    # a floor past 4,300 digits that fits the budget defers to the exact projection
    budget = 1 << 32_600  # the floor is 2**32500, the exact projection 32,695 bits
    with pytest.raises(BudgetExceededError) as caught:
        nested_sum(10**100, 100, budget=budget)
    exact = math.comb(10**100 + 99, 99)
    assert caught.value.projected == 15 * exact + math.comb(10**100 + 99, 100) + 150
    assert str(caught.value).endswith(f"exceeds budget <{budget.bit_length()}-bit int>")


def test_order_zero_does_no_work():
    assert nested_sum(10**9, 0, budget=1) == 10**9
    with pytest.raises(BudgetExceededError):
        nested_sum(1, 1, budget=oracle._CALL_COST)


def test_nested_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        nested_sum(4, -1)
    with pytest.raises(ValueError):
        nested_sum(-4, 1)


def test_subsets_of_five_choose_two():
    assert subsets(5, 2) == [
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 3),
        (2, 4),
        (2, 5),
        (3, 4),
        (3, 5),
        (4, 5),
    ]


def test_subsets_counts_and_order():
    for n in range(0, 13):
        for p in range(0, n + 1):
            subs = subsets(n, p)
            assert len(subs) == math.comb(n, p)
            assert len(set(subs)) == len(subs)
            assert subs == sorted(subs)
            assert all(s == tuple(sorted(s)) for s in subs)


def test_subsets_full_set():
    for n in range(1, 10):
        assert subsets(n, n) == [tuple(range(1, n + 1))]


# each walk with the collector paused: the listing, and the decomposition with one group per element
PAUSED_WALKS = [(subsets, 20, 10), (decompose_by_leading, 20_000, 1)]


def test_subsets_runs_no_collection():
    # at the default thresholds gen 0 would start about 260 passes in the listing and 29 in the 20,000 groups
    passes = []

    def hook(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        for walk, n, p in PAUSED_WALKS:
            gc.collect()  # from zero allocations, so that only the walk itself could start a pass
            passes.clear()
            walked = walk(n, p)
            # none in subsets; the decomposition's record is the first allocation once its walk has ended,
            # so it may start the one pass the walk held back
            assert len(passes) <= (walk is decompose_by_leading), walk.__name__
            assert (len(walked) if walk is subsets else sum(counts(walked))) == math.comb(n, p)
    finally:
        gc.callbacks.remove(hook)


@pytest.mark.parametrize("enabled", [True, False])
def test_subsets_restores_the_collector(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(subsets(12, 6)) == math.comb(12, 6)
        assert gc.isenabled() is enabled
        assert sum(counts(decompose_by_leading(12, 6))) == math.comb(12, 6)
        assert gc.isenabled() is enabled
        for walk, n, p in PAUSED_WALKS:  # refused on the walk's charge
            with pytest.raises(BudgetExceededError):
                walk(n, p, budget=100)
            assert gc.isenabled() is enabled
        with pytest.raises(BudgetExceededError):
            subsets(21, 10)  # refused on the held subsets' charge at the default budget
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            decompose_by_leading(2, 3)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_subsets_guards():
    assert len(subsets(21, 2)) == 210  # no cap on n: the walk's charge is the one guard
    with pytest.raises(BudgetExceededError):
        subsets(21, 10)
    with pytest.raises(BudgetExceededError):
        subsets(20, 10, budget=100)
    with pytest.raises(ValueError):
        subsets(-1, 2)


def test_decompose_pair_and_triple_examples():
    pair = decompose_by_leading(5, 2)
    assert counts(pair) == [4, 3, 2, 1]
    assert sum(counts(pair)) == 10
    triple = decompose_by_leading(5, 3)
    assert counts(triple) == [6, 3, 1]
    assert sum(counts(triple)) == 10


def test_decompose_singletons():
    d = decompose_by_leading(6, 1)
    assert counts(d) == [1] * 6
    assert d.groups == tuple((s, 1) for s in range(1, 7))


def test_decompose_counts_formula():
    # fixing leading element s leaves a (p-1)-subset of the n-s larger values
    for n in range(2, 13):
        for p in range(2, n + 1):
            d = decompose_by_leading(n, p)
            assert [lead for lead, _ in d.groups] == list(range(1, n - p + 2))
            assert counts(d) == [binomial(n - s, p - 1) for s in range(1, n - p + 2)]
            assert sum(counts(d)) == binomial(n, p)


def test_pair_decomposition_is_a_triangular_cascade():
    for n in range(2, 13):
        d = decompose_by_leading(n, 2)
        assert counts(d) == [termirial_p(k, 0) for k in range(n - 1, 0, -1)]
        assert sum(counts(d)) == termirial(n - 1)


def test_triple_decomposition_is_a_tetrahedral_cascade():
    for n in range(3, 13):
        d = decompose_by_leading(n, 3)
        assert counts(d) == [termirial_p(k, 1) for k in range(n - 2, 0, -1)]
        assert sum(counts(d)) == termirial_p(n - 2, 2)


def test_decompose_domain():
    with pytest.raises(ValueError):
        decompose_by_leading(5, 0)
    with pytest.raises(ValueError):
        decompose_by_leading(3, 4)


def test_decompose_guards():
    assert sum(counts(decompose_by_leading(21, 2))) == 210 == len(subsets(21, 2))
    assert sum(counts(decompose_by_leading(21, 10))) == math.comb(21, 10)  # the walk holds no subset, the listing would
    with pytest.raises(BudgetExceededError):
        subsets(21, 10)
    with pytest.raises(BudgetExceededError):
        decompose_by_leading(20, 10, budget=100)


def test_decompose_counts_formula_up_to_thirty():
    # wherever the walk stays small
    for n in range(13, 31):
        for p in range(1, n + 1):
            if binomial(n, p) <= 10**5:
                d = decompose_by_leading(n, p)
                assert counts(d) == [binomial(n - s, p - 1) for s in range(1, n - p + 2)]
                assert sum(counts(d)) == binomial(n, p)


def test_decompose_charges_each_subset_each_group_and_each_index_write():
    # the walk's projection: oracle._SUBSET_COST per subset, one unit per two of the C(n+1, p) - 1 index writes,
    # oracle._GROUP_COST per leading element and oracle._POOL_COST per element of {1..n}
    with pytest.raises(BudgetExceededError) as caught:
        decompose_by_leading(25, 2, budget=1)
    projected = 4 * 300 + math.comb(26, 2) // 2 + 115 * 24 + 100 * 25
    assert caught.value.projected == projected
    assert str(caught.value) == f"subsets(25, 2): projected {projected} exceeds budget 1"
    # near p = n each step rewrites up to n - 1 indices: 2,000 subsets, 2,000,999 writes
    projected = 4 * 2000 + math.comb(2001, 1999) // 2 + 115 * 2 + 100 * 2000
    assert counts(decompose_by_leading(2000, 1999, budget=projected)) == [1999, 1]
    with pytest.raises(BudgetExceededError):
        decompose_by_leading(2000, 1999, budget=projected - 1)


def test_subsets_charge_the_walk_and_each_held_subset_by_its_elements_and_the_bits_of_n():
    # the walk's projection plus oracle._HOLD_COST per bit of n in each element, and 50 times it, of each subset
    projected = (4 + 5 * (2 * 5 + 50)) * 300 + math.comb(26, 2) // 2 + 115 * 24 + 100 * 25
    with pytest.raises(BudgetExceededError) as caught:
        subsets(25, 2, budget=1)
    assert caught.value.projected == projected
    assert str(caught.value) == f"subsets(25, 2): projected {projected} exceeds budget 1"
    assert len(subsets(25, 2, budget=projected)) == 300
    with pytest.raises(BudgetExceededError):
        subsets(25, 2, budget=projected - 1)
    # the default budget takes C(20, p) for p = 9, 10 and 11, and refuses C(21, 10)
    for n, p, projected in [(20, 9, 80_603_185), (20, 10, 93_296_647), (20, 11, 89_030_348), (21, 10, 178_095_667)]:
        with pytest.raises(BudgetExceededError) as caught:
            subsets(n, p, budget=1)
        assert caught.value.projected == projected
        assert (projected <= DEFAULT_STEP_BUDGET) is (n == 20)


def test_the_walk_charges_the_pool_that_combinations_copies():
    # at p = n the walk writes about n/2 indices but holds n ints in its pool, about 56 B each with the index and
    # the subset's slot: 2 * 10**8 of them would take some 11 GB, so the pool's charge refuses them at once
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as caught:
        decompose_by_leading(199_999_000, 199_999_000)
    assert time.perf_counter() - start < 0.1
    assert caught.value.projected == 4 + 199_999_001 // 2 + 115 + 100 * 199_999_000
    # the largest p = n walk the default budget takes, and the next
    for n, fits in [(995_023, True), (995_024, False)]:
        with pytest.raises(BudgetExceededError) as caught:
            decompose_by_leading(n, n, budget=0)
        assert (caught.value.projected <= DEFAULT_STEP_BUDGET) is fits


@pytest.mark.parametrize(("n", "p"), [(100_000, 99_999), (6000, 5998), (10**6, 999_999)])
def test_decompose_refuses_a_walk_near_p_equal_n_at_once(n, p):
    # few subsets, but about C(n+1, p) index writes: 5 * 10**9 at (100000, 99999), minutes of walking
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as caught:
        decompose_by_leading(n, p)
    assert time.perf_counter() - start < 0.1
    assert caught.value.projected > math.comb(n + 1, p) // 2


def test_decompose_refuses_a_large_walk_on_its_floor():
    # C(10**4300, 500) is never made: the floor refuses it, and the message shows n by size
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as caught:
        decompose_by_leading(10**4300, 500)
    assert time.perf_counter() - start < 0.1
    assert str(caught.value).startswith("subsets(<14285-bit int>, 500): projected <")
    assert len(str(caught.value)) < 120


@given(st.integers(1, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_decompose_counts_the_listed_leading_elements(case):
    n, p = case
    tally = Counter(subset[0] for subset in subsets(n, p))
    assert decompose_by_leading(n, p).groups == tuple(sorted(tally.items()))
