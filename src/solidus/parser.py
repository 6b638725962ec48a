"""Surface syntax: tokenizer, recursive-descent parser and evaluator.

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

Tokens are ``(kind, text, column)`` tuples, and one table, ``_LEVELS``, sets
the precedence of the binary operators: ``expr`` and ``term`` are its two
levels, parsed by one left-associative loop; a chain of three or more terms is
summed in one pass (``_sum``).  The surface is ASCII only and accepts exact
rational literals exclusively; a quotient like 1/2 parses as division, which
evaluates to the same exact value.  A pure power of rho takes any rational
exponent in one step; any other base takes only an integer exponent.
Errors carry a 1-based ``column``: a ``ParseError`` its token's, an operator's
typed error its node's.  ``start`` is where the source begins in its line.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError, ResourceLimitError, SolidusError
from .external import ExternalNum, ext_inv, magnitude, pure, shadow, unity
from .field import RhoPoly, _sum_terms, digit_limit
from .neutrix import FULL, INFINITESIMALS, LIMITED, NX_ZERO


# --- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: int
    pos: int


@dataclass(frozen=True)
class Sym:
    name: str  # rho | o | L | M
    pos: int


@dataclass(frozen=True)
class Unary:
    op: str  # - | e | u | inv | abs | shadow
    arg: "Expr"
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction
    pos: int


@dataclass(frozen=True)
class Cmp:
    op: str  # = | < | <=
    left: "Expr"
    right: "Expr"
    pos: int


Expr = Union[Lit, Sym, Unary, BinOp, Pow, Cmp]


# --- tokenizer ------------------------------------------------------------------


# ASCII digits and identifiers only: str.isdigit would admit '²', which int() rejects;
# any other non-blank character is a "bad" token
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=|[-+*/^(),=<])|(?P<bad>\S)|\s+")


def tokenize(source: str, start: int = 0) -> list[tuple[str, str, int]]:
    """``(kind, text, column)`` tuples, kind int | name | op | end, column 1-based.

    The whole line is read before parsing, so its first bad character is the error.
    """
    tokens = []
    limit = digit_limit()
    for match in _TOKEN.finditer(source):
        kind, text, column = match.lastgroup, match.group(), start + match.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", column)
        if kind == "int" and limit and len(text) > limit:
            # int() refuses it with a ValueError; say where, as for any syntax error
            raise ParseError(f"integer literal longer than {limit} digits", column)
        if kind:
            tokens.append((kind, text, column))
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
# the binary operators by precedence, loosest first; each level is left associative
_LEVELS = (("+", "-"), ("*", "/"))


class Parser:
    def __init__(self, source: str, start: int = 0):
        self.tokens = tokenize(source, start)
        self.index = 0

    def take(self, *ops: str) -> tuple[str, str, int] | None:
        """Consume and return the current token if it is one of the operators ``ops``."""
        tok = self.tokens[self.index]
        # no int, name or end token has an operator's text
        if tok[1] in ops:
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
        tok = self.take(*_COMPARISONS)
        return Cmp(tok[1], left, self.parse_binary(), tok[2]) if tok else left

    def parse_binary(self, level: int = 0) -> Expr:
        if level == len(_LEVELS):
            return self.parse_factor()
        node = self.parse_binary(level + 1)
        while tok := self.take(*_LEVELS[level]):
            node = BinOp(tok[1], node, self.parse_binary(level + 1), tok[2])
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        tok = self.take("^")
        return Pow(node, self.parse_exponent(), tok[2]) if tok else node

    def parse_exponent(self) -> Fraction:
        if self.tokens[self.index][0] == "int":
            return Fraction(self.integer("expected an integer"))
        self.expect("(")
        sign = -1 if self.take("-") else 1
        numerator = sign * self.integer("expected an integer")
        denominator = self.integer("expected a positive integer denominator", 1) if self.take("/") else 1
        self.expect(")")
        return Fraction(numerator, denominator)

    def parse_atom(self) -> Expr:
        kind, text, column = self.tokens[self.index]
        self.index += 1
        if kind == "int":
            return Lit(int(text), column)
        if text == "-":
            # binds looser than '^' so canonical text like -rho^2 means -(rho^2)
            return Unary("-", self.parse_factor(), column)
        if kind == "name":
            if text in _SYMBOLS:
                return Sym(text, column)
            if text not in _FUNCTIONS:
                raise ParseError(f"unknown identifier {text!r}", column)
            self.expect("(")
        elif text != "(":
            raise ParseError("expected a value", column)
        inner = self.parse_binary()
        self.expect(")")
        return Unary(text, inner, column) if kind == "name" else inner


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


def _power(base: ExternalNum, exponent: Fraction) -> ExternalNum:
    p = base.rep.num
    # a precise base rho^q (one term, coefficient c/den = 1) to any rational power is rho^(q*exponent)
    if base.nx == NX_ZERO and base.rep.is_polynomial() and len(p.ks) == 1 and p.ks[0][1] == p.den:
        return ExternalNum(RhoPoly.rho_power(Fraction(p.ks[0][0], p.grid) * exponent))
    if exponent.denominator != 1:
        raise SolidusError("power base must be a pure power of rho")
    return _integer_power(base, exponent.numerator)


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
        return _evaluate(expr)
    except RecursionError:
        raise ResourceLimitError(_TOO_DEEP) from None


def _evaluate(expr: Expr) -> ExternalNum | bool:
    if isinstance(expr, Lit):
        return ExternalNum(expr.value)
    if isinstance(expr, Sym):
        return _SYMBOLS[expr.name]
    if isinstance(expr, Cmp):
        return _COMPARISONS[expr.op](_value(expr.left), _value(expr.right))
    if isinstance(expr, BinOp):
        if expr.op in _LEVELS[0] and isinstance(expr.left, BinOp) and expr.left.op in _LEVELS[0]:
            return _sum(expr)
        return _apply(expr, _BINARY[expr.op], _value(expr.left), _value(expr.right))
    if isinstance(expr, Unary):
        return _apply(expr, _FUNCTIONS[expr.op], _value(expr.arg))
    if isinstance(expr, Pow):
        return _apply(expr, _power, _value(expr.base), expr.exponent)
    raise ParseError("unknown expression node", getattr(expr, "pos", 1))


def _apply(node: Expr, op, *args) -> ExternalNum:
    try:
        return op(*args)
    except SolidusError as exc:  # the operator's own typed error, at this node
        exc.column = exc.column or node.pos
        raise


def _sum(expr: BinOp) -> ExternalNum:
    """A ``+``/``-`` chain of three or more terms, left to right: a run of precise polynomials
    after a polynomial value is merged once (not after a ratio: a zero sum resets its denominator)."""
    nodes = [expr]  # the chain's nodes, the last one's left operand its first term
    while isinstance(nodes[-1].left, BinOp) and nodes[-1].left.op in _LEVELS[0]:
        nodes.append(nodes[-1].left)
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
    result = _evaluate(expr)
    if isinstance(result, bool):
        raise ParseError("comparison used as a value", expr.pos)
    return result


def eval_text(source: str) -> ExternalNum | bool:
    return evaluate(parse(source))
