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

from .budget import DEFAULT_STEP_BUDGET, check_budget, record
from .core import termirial_p

KEYWORDS = ("for", "to")


class LoopNestError(Exception):
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


class _Token(record("_Token", "kind text column")):
    # kind is "ident", "int" or "eq"; column is 1-based
    __slots__ = ()


_TOKEN_RE = re.compile(r"(?P<ws>[ \t]+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<eq>=)")
# A whole well-formed `for` line, read as the tokens would read it: the
# keywords in any case, neither name a keyword, the start exactly 1, and
# a blank wherever two names or a keyword and a name would otherwise fuse.
_NAME = r"(?!(?i:for|to)(?![A-Za-z0-9_]))[A-Za-z][A-Za-z0-9_]*"
_FOR_LINE_RE = re.compile(
    rf"[ \t]*(?i:for)[ \t]+(?P<index>{_NAME})[ \t]*=[ \t]*1(?![0-9])[ \t]*(?i:to)[ \t]+(?P<bound>{_NAME})[ \t]*"
)


def _tokenize(code: str, lineno: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(code):
        match = _TOKEN_RE.match(code, pos)
        if match is None:
            raise LoopSyntaxError(f"unexpected character {code[pos]!r}", lineno, pos + 1)
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), match.start() + 1))
        pos = match.end()
    return tokens


def _is_keyword(token: _Token) -> bool:
    return token.kind == "ident" and token.text.lower() in KEYWORDS


class _LineParser:
    """Pulls expected tokens off one line, reporting precise positions."""

    def __init__(self, tokens: list[_Token], lineno: int, line_len: int):
        self.tokens = tokens
        self.lineno = lineno
        self.line_len = line_len
        self.pos = 0

    def _next(self, expected: str) -> _Token:
        if self.pos >= len(self.tokens):
            raise LoopSyntaxError(f"expected {expected}, found end of line", self.lineno, self.line_len + 1)
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def keyword(self, word: str) -> None:
        token = self._next(f"'{word}'")
        if not (token.kind == "ident" and token.text.lower() == word):
            raise LoopSyntaxError(f"expected '{word}', found {token.text!r}", self.lineno, token.column)

    def ident(self, expected: str) -> _Token:
        token = self._next(expected)
        if token.kind != "ident" or _is_keyword(token):
            raise LoopSyntaxError(f"expected {expected}, found {token.text!r}", self.lineno, token.column)
        return token

    def literal_eq(self) -> None:
        token = self._next("'='")
        if token.kind != "eq":
            raise LoopSyntaxError(f"expected '=', found {token.text!r}", self.lineno, token.column)

    def literal_one(self) -> None:
        token = self._next("'1'")
        if token.kind != "int" or token.text != "1":
            raise LoopSyntaxError(
                f"expected '1' (loops always run from 1), found {token.text!r}", self.lineno, token.column
            )

    def integer(self) -> int:
        token = self._next("an integer")
        if token.kind != "int":
            raise LoopSyntaxError(f"expected an integer, found {token.text!r}", self.lineno, token.column)
        try:
            return int(token.text)
        except ValueError:  # longer than the interpreter's integer string conversion limit
            raise LoopSyntaxError(
                f"integer literal of {len(token.text)} digits is too long", self.lineno, token.column
            ) from None

    def end(self) -> None:
        if self.pos < len(self.tokens):
            token = self.tokens[self.pos]
            raise LoopSyntaxError(f"unexpected {token.text!r} after end of statement", self.lineno, token.column)


def parse(source: str) -> LoopNestProgram:
    """Parse DSL text into a LoopNestProgram.

    A well-formed `for` line is read by one regular-expression match;
    every other line goes through the tokenizer and _LineParser, which
    raise the syntax errors.  Raises LoopSyntaxError,
    UnknownIdentifierError, NonChainBoundError, or DuplicateIndexError,
    each carrying the offending line and column.
    """
    param_name: str | None = None
    param_value: int | None = None
    loops: list[Loop] = []
    index_names: set[str] = set()
    lineno = 0

    for lineno, raw in enumerate(source.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        match = _FOR_LINE_RE.fullmatch(code)
        if match:
            index, bound = match["index"], match["bound"]
            index_column, bound_column = match.start("index") + 1, match.start("bound") + 1
        else:
            tokens = _tokenize(code, lineno)
            if not tokens:
                continue
            line = _LineParser(tokens, lineno, len(code))

            if not loops and param_name is None and _looks_like_assign(tokens):
                name = line.ident("a parameter name")
                line.literal_eq()
                param_value = line.integer()
                line.end()
                param_name = name.text
                continue

            line.keyword("for")
            index_token = line.ident("a loop index")
            line.literal_eq()
            line.literal_one()
            line.keyword("to")
            bound_token = line.ident("a bound identifier")
            line.end()
            index, index_column = index_token.text, index_token.column
            bound, bound_column = bound_token.text, bound_token.column

        first = not loops
        if first and param_name is None:
            param_name = bound
        if index == param_name or index in index_names:
            raise DuplicateIndexError(f"index {index!r} is already in use", lineno, index_column)

        enclosing = param_name if first else loops[-1].index
        if bound != enclosing:
            known = bound == param_name or bound in index_names or bound == index
            if known:
                raise NonChainBoundError(
                    f"bound {bound!r} breaks the chain; expected {enclosing!r}", lineno, bound_column
                )
            raise UnknownIdentifierError(f"unknown name {bound!r}", lineno, bound_column)

        loops.append(Loop(index=index, bound=bound))
        index_names.add(index)

    if not loops:
        raise LoopSyntaxError("expected at least one loop", max(lineno, 1), 1)
    assert param_name is not None
    return LoopNestProgram(param_name=param_name, param_value=param_value, loops=tuple(loops))


def _looks_like_assign(tokens: list[_Token]) -> bool:
    return len(tokens) >= 2 and tokens[0].kind == "ident" and not _is_keyword(tokens[0]) and tokens[1].kind == "eq"


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


def analyze(prog: LoopNestProgram, n: int | None = None) -> AnalysisResult:
    """Iteration count of the nest: termirial_p(n, depth-1) = C(n+depth-1, depth).

    The bound n is prog.param_value unless overridden; when neither is
    given the result is symbolic (exact_count is None).
    """
    value = prog.param_value if n is None else n
    depth = prog.depth
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

    Independent of the closed form apart from the budget pre-check, so it
    serves as the oracle for analyze().  Under index j of loop d - 1 the
    innermost loop runs j times, so the count is the oracle's iterated sum
    with d - 1 sigma levels, which adds each such j one at a time at any
    depth.  A bound of 0 is an empty loop and contributes nothing.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_budget(termirial_p(n, prog.depth - 1), budget, f"simulate depth {prog.depth} with n = {n}")
    from .oracle import _iterated_sum  # on first use: parsing and analysis never load the oracle
    return _iterated_sum(n, prog.depth - 1)
