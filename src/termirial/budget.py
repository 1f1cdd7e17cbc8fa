"""Work guards and the record base shared by the oracle, loop-nest and figure code."""

from collections import namedtuple

DEFAULT_STEP_BUDGET = 10**8
DEFAULT_CELL_BUDGET = 10**7
MAX_DIGITS = 4300  # the interpreter's default int-to-text limit
DIGIT_CAP = 10**MAX_DIGITS  # counts past it are refused on a bit-length floor, before they are made
# value_cost's units per value, per VALUE_MAKE of k*b and per VALUE_PRINT of b*b, fitted to measured times (README)
VALUE_CALL, VALUE_MAKE, VALUE_PRINT = 40, 120, 6800


def short(value: int) -> int | str:
    return value if value.bit_length() <= 64 else f"<{value.bit_length()}-bit int>"  # keeps a refusal's message short


class BudgetExceededError(Exception):
    """A guarded call would do more work than its budget allows; projected may be a lower bound."""

    def __init__(self, what: str, projected: int, budget: int):
        super().__init__(f"{what}: projected {short(projected)} exceeds budget {short(budget)}")
        self.what = what
        self.projected = projected
        self.budget = budget


def check_budget(projected: int, budget: int, what: str) -> None:
    if projected > budget:
        raise BudgetExceededError(what, projected, budget)


def floor_bits(N: int, k: int) -> int:
    """k * (bits(N // k) - 1) for k = min(k, N-k) > 0, else 0: a floor of log2 C(N, k), at most 4k + 1 bits short."""
    k = min(k, N - k)
    return k * ((N // k).bit_length() - 1) if k > 0 else 0


def value_cost(N: int, k: int, bits: int | None = None) -> int:
    """Work of making C(N, k) by math.comb and printing it, in the engine's unit: VALUE_CALL + k*b / VALUE_MAKE
    + b*b / VALUE_PRINT (int-to-text is quadratic) for k = min(k, N-k) and b = floor_bits(N, k) + k, within 1.5k + 1
    of the bit length; bits replaces the floor for a value made otherwise, as 2**p by a shift (N = k = 0, bits = p)."""
    k = max(min(k, N - k), 0)
    b = (floor_bits(N, k) if bits is None else bits) + k
    return VALUE_CALL + k * b // VALUE_MAKE + b * b // VALUE_PRINT


def check_floor(n: int, p: int, budget: int, what: str) -> None:
    """Refuse a count C(n+p-1, p) on a bit-length floor, before it is made, once that floor passes 4,300 digits.

    The floor is n, or 2**floor_bits(n+p-1, p) when larger; what names the call, {n} by size.
    """
    if p * (n + p).bit_length() < DIGIT_CAP.bit_length():  # the count cannot pass 4,300 digits
        return
    bits = min(floor_bits(n + p - 1, p), budget.bit_length() + DIGIT_CAP.bit_length())  # small, yet past budget
    floor = max(n, 1 << bits)
    if floor >= DIGIT_CAP:
        check_budget(floor, budget, what.format(n=f"<{n.bit_length()}-bit int>"))


def record(name: str, fields: str) -> type:
    """A namedtuple base for a record class, which subclasses it with __slots__ = ().

    As with a frozen dataclass, a record equals only a record of its own class
    with equal fields, never a plain tuple, and its fields are read-only.
    """
    base = namedtuple(name, fields)
    base.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    base.__ne__ = object.__ne__
    base.__hash__ = tuple.__hash__
    return base
