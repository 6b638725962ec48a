"""Surface syntax: tokenizer, precedence-climbing parser and evaluator.

Grammar (whitespace insensitive, left associative):

    compare := expr (('=' | '<' | '<=') expr)?
    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ('^' exponent)?
    atom    := integer | 'rho' | 'o' | 'L' | 'M' | '(' expr ')' | '-' factor
             | ident '(' expr ')'
    ident   := 'e' | 'u' | 'inv' | 'abs' | 'shadow'
    exponent:= '(' rational ')' | integer
    rational:= '-'? integer ('/' positive-integer)?

Tokens are ``(kind, text, column)`` tuples from one comprehension over the
regex matches, blanks skipped.  One table, ``_LEVELS``, sets the precedence of
the binary operators (``expr`` and ``term``), parsed by one precedence-climbing
loop; a chain of one level is evaluated down its left spine in a loop, and a
``+``/``-`` chain of three or more terms is summed in one pass (``_sum``).  Nodes
are ``NamedTuple``s, evaluated by one step per class (``_STEPS``); parentheses,
calls and prefix minus signs nest at most ``MAX_NESTING`` deep.  The surface
is ASCII only and accepts exact rational literals exclusively; a quotient like
1/2 parses as division, which evaluates to the same exact value.  An exponent
is a reduced int pair: a pure power of rho takes any rational one in one step,
any other base only an integer.
Errors carry a 1-based ``column``: a ``ParseError`` its token's, an operator's
typed error its node's.  ``start`` is where the source begins in its line.
"""

from __future__ import annotations

import operator
import re
from math import gcd
from typing import NamedTuple, Union

from .errors import ParseError, ResourceLimitError, SolidusError
from .external import ExternalNum, _external, ext_inv, magnitude, pure, shadow, unity
from .field import ONE_POLY, RhoPoly, _make, _precise, _sum_terms, digit_limit
from .neutrix import FULL, INFINITESIMALS, LIMITED, NX_ZERO


# --- syntax tree ---------------------------------------------------------------


class Lit(NamedTuple):
    value: int
    pos: int


class Sym(NamedTuple):
    name: str  # rho | o | L | M
    pos: int


class Unary(NamedTuple):
    op: str  # - | e | u | inv | abs | shadow
    arg: "Expr"
    pos: int


class BinOp(NamedTuple):
    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    pos: int


class Pow(NamedTuple):
    base: "Expr"
    exponent: tuple[int, int]  # (n, d) in lowest terms, d > 0
    pos: int


class Cmp(NamedTuple):
    op: str  # = | < | <=
    left: "Expr"
    right: "Expr"
    pos: int


Expr = Union[Lit, Sym, Unary, BinOp, Pow, Cmp]


# --- tokenizer ------------------------------------------------------------------


# ASCII digits and identifiers only: str.isdigit would admit '²', which int() rejects;
# any other non-blank character is a "bad" token, and _SUSPECT finds the first one;
# finditer skips the blanks, which no alternative matches
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=|[-+*/^(),=<])|(?P<bad>\S)")
_SUSPECT = re.compile(r"[^0-9A-Za-z_<=+*/^(),\-\s]")


def tokenize(source: str, start: int = 0) -> list[tuple[str, str, int]]:
    """``(kind, text, column)`` tuples, kind int | name | op | end, column 1-based.

    The whole line is read before parsing, so its first bad character or
    over-long literal is the error; only a line with a suspect character, or
    longer than the digit limit, is checked match by match for one.
    """
    limit = digit_limit()
    if _SUSPECT.search(source) or limit and len(source) > limit:
        for match in _TOKEN.finditer(source):
            kind, text, column = match.lastgroup, match.group(), start + match.start() + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {text!r}", column)
            if kind == "int" and limit and len(text) > limit:
                # int() refuses it with a ValueError; say where, as for any syntax error
                raise ParseError(f"integer literal longer than {limit} digits", column)
    tokens = [(m.lastgroup, m.group(), start + m.start() + 1) for m in _TOKEN.finditer(source)]
    tokens.append(("end", "", start + len(source) + 1))
    return tokens


# --- operator tables --------------------------------------------------------------


_SYMBOLS = {
    "rho": ExternalNum(RhoPoly.rho_power(1)),
    "o": pure(INFINITESIMALS),
    "L": pure(LIMITED),
    "M": pure(FULL),
}
# '-' is prefix negation; every other key is also a function name in the grammar
_FUNCTIONS = {
    "-": operator.neg,
    "e": magnitude,
    "u": unity,
    "inv": ext_inv,
    "abs": abs,
    "shadow": shadow,
}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_COMPARISONS = {"=": operator.eq, "<": operator.lt, "<=": operator.le}


# --- parser ---------------------------------------------------------------------


_TOO_DEEP = "expression nested too deeply"
# the deepest nesting of '(', calls and prefix '-' together; at 3 frames a level, inside the recursion limit
MAX_NESTING = 200
# the binary operators by precedence, loosest first; each level is left associative
_LEVELS = (("+", "-"), ("*", "/"))
_BINDING = {op: level for level, ops in enumerate(_LEVELS, 1) for op in ops}


class Parser:
    def __init__(self, source: str, start: int = 0):
        self.tokens = tokenize(source, start)
        self.index = 0
        self.depth = 0

    def take(self, op: str) -> tuple[str, str, int] | None:
        """Consume and return the current token if it is the operator ``op``."""
        tok = self.tokens[self.index]
        # no int, name or end token has an operator's text
        if tok[1] == op:
            self.index += 1
            return tok
        return None

    def expect(self, op: str) -> None:
        if not self.take(op):
            raise ParseError(f"expected {op!r}", self.tokens[self.index][2])

    def integer(self, message: str, least: int = 0) -> int:
        kind, text, column = self.tokens[self.index]
        if kind != "int" or int(text) < least:
            raise ParseError(message, column)
        self.index += 1
        return int(text)

    def parse_compare(self) -> Expr:
        left = self.parse_binary()
        if (tok := self.tokens[self.index])[1] not in _COMPARISONS:
            return left
        self.index += 1
        return Cmp(tok[1], left, self.parse_binary(), tok[2])

    def parse_binary(self, floor: int = 1) -> Expr:
        """Operands and the operators of level ``floor`` or tighter; a tighter right operand recurses."""
        node = self.parse_factor()
        while (level := _BINDING.get((tok := self.tokens[self.index])[1], 0)) >= floor:
            self.index += 1
            node = BinOp(tok[1], node, self.parse_binary(level + 1), tok[2])
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        tok = self.take("^")
        return Pow(node, self.parse_exponent(), tok[2]) if tok else node

    def parse_exponent(self) -> tuple[int, int]:
        if self.tokens[self.index][0] == "int":
            return self.integer("expected an integer"), 1
        self.expect("(")
        sign = -1 if self.take("-") else 1
        numerator = sign * self.integer("expected an integer")
        denominator = self.integer("expected a positive integer denominator", 1) if self.take("/") else 1
        self.expect(")")
        g = gcd(numerator, denominator)
        return numerator // g, denominator // g

    def parse_atom(self) -> Expr:
        kind, text, column = self.tokens[self.index]
        self.index += 1
        if kind == "int":
            return Lit(int(text), column)
        if kind == "name":
            if text in _SYMBOLS:
                return Sym(text, column)
            if text not in _FUNCTIONS:
                raise ParseError(f"unknown identifier {text!r}", column)
            self.expect("(")
        elif text != "(" and text != "-":
            raise ParseError("expected a value", column)
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ResourceLimitError(_TOO_DEEP)
        if text == "-":
            # binds looser than '^' so canonical text like -rho^2 means -(rho^2)
            inner = self.parse_factor()
        else:
            inner = self.parse_binary()
            self.expect(")")
        self.depth -= 1
        return inner if text == "(" else Unary(text, inner, column)


def _parse_items(source: str, start: int, many: bool) -> list[Expr]:
    parser = Parser(source, start)
    item = parser.parse_binary if many else parser.parse_compare
    try:
        items = [item()]
        while many and parser.take(","):
            items.append(item())
    except RecursionError:
        raise ResourceLimitError(_TOO_DEEP) from None
    kind, text, column = parser.tokens[parser.index]
    if kind != "end":
        raise ParseError(f"unexpected {text!r}", column)
    return items


def parse(source: str) -> Expr:
    """Parse one expression or comparison; raises ParseError with a column."""
    return _parse_items(source, 0, many=False)[0]


def parse_expr_list(source: str, start: int = 0) -> list[Expr]:
    """Parse a comma-separated list of expressions, none a comparison."""
    return _parse_items(source, start, many=True)


# --- evaluator --------------------------------------------------------------------


def _power(base: ExternalNum, exponent: tuple[int, int]) -> ExternalNum:
    (n, d), p = exponent, base.rep.num
    # a precise base rho^(k/grid) (one term, coefficient c/den = 1) to the power n/d is
    # rho^(k*n/(grid*d)), reduced by one gcd
    if base.nx._key[0] < 0 and base.rep.is_polynomial() and len(p.ks) == 1 and p.ks[0][1] == p.den:
        k, grid = p.ks[0][0] * n, p.grid * d
        g = gcd(k, grid)
        return _external(_precise(_make(grid // g, 1, ((k // g, 1),)), ONE_POLY), NX_ZERO)
    if d != 1:
        raise SolidusError("power base must be a pure power of rho")
    return _integer_power(base, n)


def _integer_power(value: ExternalNum, n: int) -> ExternalNum:
    if n < 0:
        value = ext_inv(value)
        n = -n
    # binary exponentiation: the product is associative and canonical forms are
    # unique, so O(log n) products give the same form as n of them
    result = ExternalNum(1)
    while n:
        if n & 1:
            result = result * value
        n >>= 1
        if n:
            value = value * value
    return result


def evaluate(expr: Expr) -> ExternalNum | bool:
    """Bottom-up evaluation to a canonical external number (or a comparison bool).

    An operator's typed error propagates with its node's column.
    """
    try:
        return _STEPS.get(type(expr), _unknown)(expr)
    except RecursionError:
        raise ResourceLimitError(_TOO_DEEP) from None


def _unknown(expr) -> None:
    raise ParseError("unknown expression node", getattr(expr, "pos", 1))


def _binary(expr: BinOp) -> ExternalNum:
    """A chain of one level's operators, walked down its left spine in a loop, not by recursion."""
    ops = _LEVELS[_BINDING[expr.op] - 1]
    nodes = [expr]  # the chain's nodes, the last one's left operand its first term
    while isinstance(nodes[-1].left, BinOp) and nodes[-1].left.op in ops:
        nodes.append(nodes[-1].left)
    if len(nodes) > 1 and ops is _LEVELS[0]:
        return _sum(nodes)
    total = _value(nodes[-1].left)
    for node in reversed(nodes):
        total = _apply(node, _BINARY[node.op], total, _value(node.right))
    return total


# one evaluation step per node class, looked up by evaluate and _value
_STEPS = {
    Lit: lambda expr: ExternalNum(expr.value),
    Sym: lambda expr: _SYMBOLS[expr.name],
    Cmp: lambda expr: _COMPARISONS[expr.op](_value(expr.left), _value(expr.right)),
    BinOp: _binary,
    Unary: lambda expr: _apply(expr, _FUNCTIONS[expr.op], _value(expr.arg)),
    Pow: lambda expr: _apply(expr, _power, _value(expr.base), expr.exponent),
}


def _apply(node: Expr, op, *args) -> ExternalNum:
    try:
        return op(*args)
    except SolidusError as exc:  # the operator's own typed error, at this node
        exc.column = exc.column or node.pos
        raise


def _sum(nodes: list[BinOp]) -> ExternalNum:
    """A ``+``/``-`` chain of three or more terms, left to right: a run of precise polynomials
    after a polynomial value is merged once (not after a ratio: a zero sum resets its denominator)."""
    total, run = _value(nodes[-1].left), []
    for node in reversed(nodes):
        if (x := _value(node.right)).nx is NX_ZERO and x.rep.is_polynomial() and total.rep.is_polynomial():
            run.append(-x.rep.num if node.op == "-" else x.rep.num)
            continue
        total, run = _apply(node, _BINARY[node.op], _plus(total, run), x), []
    return _plus(total, run)


def _plus(total: ExternalNum, run: list[RhoPoly]) -> ExternalNum:
    """``total``, whose representative is a polynomial, plus ``run``: one merge, one truncation."""
    if len(run) < 2:
        return total + run[0] if run else total
    return ExternalNum(_sum_terms([(k, p.grid, c, p.den) for p in run + [total.rep.num] for k, c in p.ks]), total.nx)


def _value(expr: Expr) -> ExternalNum:
    # the lookup inline, not through a function: two frames per level of the tree
    result = _STEPS.get(type(expr), _unknown)(expr)
    if isinstance(result, bool):
        raise ParseError("comparison used as a value", expr.pos)
    return result


def eval_text(source: str) -> ExternalNum | bool:
    return evaluate(parse(source))
