"""Work guards and the record base shared by the oracle, loop-nest and figure code."""

from collections import namedtuple

DEFAULT_STEP_BUDGET = 10**8
DEFAULT_CELL_BUDGET = 10**7
DIGIT_CAP = 10**4300  # the interpreter's default int-to-text limit; messages show bigger ints by size


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
