"""Parser, analyzer, and brute-force simulator for chain loop nests.

The DSL describes nests such as

    n = 100
    for i = 1 to n
    for j = 1 to i
    for k = 1 to j

one loop per line, where the first bound is the nest parameter and every
later bound is the index of the loop immediately above it.  A chain nest
of depth d runs its innermost body termirial_p(n, d-1) times, which is
why only strict chains are accepted: any other bound shape would change
the count away from a termirial, so it is rejected rather than
miscounted.

Keywords are case-insensitive, index names are case-sensitive, and '#'
starts a comment.  The assignment line is optional; without it the
analysis stays symbolic in the parameter.
"""

import re

from .budget import DEFAULT_STEP_BUDGET, MAX_DIGITS, check_budget, record, short, value_cost
from .core import termirial_p


class LoopNestError(ValueError):
    """Parse-time error with a 1-based line and column."""

    kind = "error"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class LoopSyntaxError(LoopNestError):
    kind = "syntax"


class UnknownIdentifierError(LoopNestError):
    kind = "unknown-identifier"


class NonChainBoundError(LoopNestError):
    kind = "non-chain-bound"


class DuplicateIndexError(LoopNestError):
    kind = "duplicate-index"


class Loop(record("Loop", "index bound")):
    """One `for index = 1 to bound` line, both names as written."""

    __slots__ = ()


class LoopNestProgram(record("LoopNestProgram", "param_name param_value loops")):
    """A parsed nest: the parameter, its value (None when unassigned) and the Loops."""

    __slots__ = ()

    @property
    def depth(self) -> int:
        return len(self.loops)


_TOKEN_RE = re.compile(r"(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<eq>=)|(?P<bad>[^ \t])")
# A whole well-formed line of each statement, read as the tokens would read
# it: the keywords in any case, no name a keyword, the start exactly 1, and
# a blank wherever two names or a keyword and a name would otherwise fuse.
_NAME = r"(?!(?i:for|to)(?![A-Za-z0-9_]))[A-Za-z][A-Za-z0-9_]*"
_FOR_LINE_RE = re.compile(
    rf"[ \t]*(?i:for)[ \t]+(?P<index>{_NAME})[ \t]*=[ \t]*1(?![0-9])[ \t]*(?i:to)[ \t]+(?P<bound>{_NAME})[ \t]*"
)
_ASSIGN_RE = re.compile(rf"[ \t]*(?P<name>{_NAME})[ \t]*=[ \t]*(?P<value>[0-9]+)[ \t]*")
# Each statement's tokens in order: what an error says was expected, and
# the pattern the token's full text must match.
_FOR_SHAPE = (
    ("'for'", "(?i:for)"),
    ("a loop index", _NAME),
    ("'='", "="),
    ("'1'", "1"),
    ("'to'", "(?i:to)"),
    ("a bound identifier", _NAME),
)
_ASSIGN_SHAPE = (("a parameter name", _NAME), ("'='", "="), ("an integer", "[0-9]+"))


def parse(source: str) -> LoopNestProgram:
    """Parse DSL text into a LoopNestProgram.

    Each statement's regex accepts its well-formed lines whole, with the
    names and their columns; _syntax_error names the first fault of any
    other non-blank line.  Raises LoopSyntaxError, UnknownIdentifierError,
    NonChainBoundError, or DuplicateIndexError, each carrying the
    offending line and column.
    """
    param_name: str | None = None
    param_value: int | None = None
    loops: list[Loop] = []
    index_names: set[str] = set()
    lineno = 0

    for lineno, raw in enumerate(source.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        if not code.strip(" \t"):
            continue
        match = _FOR_LINE_RE.fullmatch(code)
        if match is None:
            assign_allowed = not loops and param_name is None
            assign = _ASSIGN_RE.fullmatch(code) if assign_allowed else None
            if assign is None:
                raise _syntax_error(code, lineno, assign_allowed)
            if len(assign["value"]) > MAX_DIGITS:  # the interpreter's default limit, whatever the caller set
                message = f"integer literal of {len(assign['value'])} digits is too long"
                raise LoopSyntaxError(message, lineno, assign.start("value") + 1)
            param_name, param_value = assign["name"], int(assign["value"])
            continue

        index, bound = match["index"], match["bound"]
        first = not loops
        if first and param_name is None:
            param_name = bound
        if index == param_name or index in index_names:
            raise DuplicateIndexError(f"index {index!r} is already in use", lineno, match.start("index") + 1)

        enclosing = param_name if first else loops[-1].index
        if bound != enclosing:
            known = bound == param_name or bound in index_names or bound == index
            if known:
                raise NonChainBoundError(
                    f"bound {bound!r} breaks the chain; expected {enclosing!r}", lineno, match.start("bound") + 1
                )
            raise UnknownIdentifierError(f"unknown name {bound!r}", lineno, match.start("bound") + 1)

        loops.append(Loop(index=index, bound=bound))
        index_names.add(index)

    if not loops:
        raise LoopSyntaxError("expected at least one loop", max(lineno, 1), 1)
    assert param_name is not None
    return LoopNestProgram(param_name=param_name, param_value=param_value, loops=tuple(loops))


def _syntax_error(code: str, lineno: int, assign_allowed: bool) -> LoopSyntaxError:
    """The first fault of a non-blank line that no statement's regex accepts.

    A character that starts no token comes first, wherever it stands.  Past
    that, a line that starts with a name and '=' while an assignment is
    allowed is read against _ASSIGN_SHAPE, any other against _FOR_SHAPE.
    """
    tokens = list(_TOKEN_RE.finditer(code))  # blanks start no token, so the search steps over them
    bad = next((token for token in tokens if token.lastgroup == "bad"), None)
    if bad:
        return LoopSyntaxError(f"unexpected character {bad[0]!r}", lineno, bad.start() + 1)
    starts_assign = len(tokens) >= 2 and re.fullmatch(_NAME, tokens[0][0]) and tokens[1][0] == "="
    shape = _ASSIGN_SHAPE if assign_allowed and starts_assign else _FOR_SHAPE
    for (expected, pattern), token in zip(shape, tokens):
        if not re.fullmatch(pattern, token[0]):
            hint = " (loops always run from 1)" if pattern == "1" else ""
            return LoopSyntaxError(f"expected {expected}{hint}, found {token[0]!r}", lineno, token.start() + 1)
    if len(tokens) < len(shape):
        return LoopSyntaxError(f"expected {shape[len(tokens)][0]}, found end of line", lineno, len(code) + 1)
    extra = tokens[len(shape)]
    return LoopSyntaxError(f"unexpected {extra[0]!r} after end of statement", lineno, extra.start() + 1)


def render(prog: LoopNestProgram) -> str:
    """Canonical DSL text; parse(render(prog)) == prog."""
    lines = []
    if prog.param_value is not None:
        lines.append(f"{prog.param_name} = {prog.param_value}")
    lines.extend(f"for {loop.index} = 1 to {loop.bound}" for loop in prog.loops)
    return "\n".join(lines) + "\n"


class AnalysisResult(record("AnalysisResult", "depth order param_name param_value exact_count theta_exponent")):
    """Iteration count of a chain nest: exact, closed-form, and asymptotic.

    order is depth - 1, the termirial order of the count; param_value and
    exact_count are None when the analysis is symbolic.
    """

    __slots__ = ()

    def termirial_text(self) -> str:
        base = self.param_name if self.param_value is None else str(self.param_value)
        return f"termirial_p({base}, {self.order})"

    def binomial_text(self) -> str:
        if self.param_value is None:
            top = self.param_name if self.order == 0 else f"{self.param_name}+{self.order}"
        else:
            top = str(self.param_value + self.order)
        return f"C({top}, {self.depth})"

    def theta_text(self) -> str:
        return f"Θ({self.param_name}^{self.theta_exponent})"


def analyze(prog: LoopNestProgram, n: int | None = None, budget: int = DEFAULT_STEP_BUDGET) -> AnalysisResult:
    """Iteration count of the nest: termirial_p(n, depth-1) = C(n+depth-1, depth), refused first past budget.

    The bound n is prog.param_value unless overridden; when neither is
    given the result is symbolic (exact_count is None).
    """
    value, depth = prog.param_value if n is None else n, prog.depth
    if value is not None:
        what = f"loop count termirial_p({short(value)}, {depth - 1})"
        check_budget(value_cost(value + depth - 1, depth), budget, what)
    return AnalysisResult(
        depth=depth,
        order=depth - 1,
        param_name=prog.param_name,
        param_value=value,
        exact_count=None if value is None else termirial_p(value, depth - 1),
        theta_exponent=depth,
    )


def simulate(prog: LoopNestProgram, n: int, budget: int = DEFAULT_STEP_BUDGET) -> int:
    """Count innermost-body entries by enumerating the nest's index tuples.

    Independent of the closed form, so it serves as the oracle for
    analyze().  Under index j of loop d - 1 the innermost loop runs j
    times, so the count is the oracle's iterated sum with d - 1 sigma
    levels, which adds each such j one at a time at any depth and guards
    the budget.  A bound of 0 is an empty loop and contributes nothing.
    """
    from .oracle import _iterated_sum  # on first use: parsing and analysis never load the oracle
    return _iterated_sum(n, prog.depth - 1, budget, f"simulate depth {prog.depth} with n = {{n}}")
