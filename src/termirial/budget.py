"""Work guards and the record base shared by the oracle, loop-nest and figure code."""

from collections import namedtuple

DEFAULT_STEP_BUDGET = 10**8
DEFAULT_CELL_BUDGET = 10**7
MAX_DIGITS = 4300  # the interpreter's default int-to-text limit
DIGIT_CAP = 10**MAX_DIGITS  # messages show ints from here up by size


class BudgetExceededError(Exception):
    """A guarded call would do more work than its budget allows; projected may be a lower bound."""

    def __init__(self, what: str, projected: int, budget: int):
        shown = (v if v < DIGIT_CAP else f"<{v.bit_length()}-bit int>" for v in (projected, budget))
        super().__init__("{}: projected {} exceeds budget {}".format(what, *shown))
        self.what = what
        self.projected = projected
        self.budget = budget


def check_budget(projected: int, budget: int, what: str) -> None:
    if projected > budget:
        raise BudgetExceededError(what, projected, budget)


def check_floor(n: int, p: int, budget: int, what: str) -> None:
    """Refuse a count C(n+p-1, p) on a bit-length floor, before it is made, once that floor passes 4,300 digits.

    The floor is n, or (N/k)**k for N = n+p-1 and k = min(p, n-1) when larger; what names the call, {n} by size.
    """
    if p * (n + p).bit_length() < DIGIT_CAP.bit_length():  # the count cannot pass 4,300 digits
        return
    k = min(p, n - 1)
    bits = k * (((n + p - 1) // k).bit_length() - 1) if k > 0 else 0
    floor = max(n, 1 << min(bits, budget.bit_length() + DIGIT_CAP.bit_length()))  # small, yet past budget
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
