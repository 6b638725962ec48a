"""Surface syntax: tokenizer, recursive-descent parser and evaluator.

Grammar (whitespace insensitive, left associative):

    compare := expr (('=' | '<' | '<=') expr)?
    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ('^' exponent)?
    atom    := integer | 'rho' | 'o' | 'L' | 'M' | '(' expr ')' | '-' atom
             | ident '(' expr ')'
    ident   := 'e' | 'u' | 'inv' | 'abs' | 'shadow'
    exponent:= '(' rational ')' | integer
    rational:= integer ('/' positive-integer)?

The surface is ASCII only and accepts exact rational literals exclusively; a
quotient like 1/2 parses as division, which evaluates to the same exact value.
Exponent bases must evaluate to a pure power of rho unless the exponent is an
integer.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import ParseError, SolidusError
from .external import ExternalNum, ext_inv, magnitude, pure, shadow, unity
from .field import RhoPoly
from .neutrix import FULL, INFINITESIMALS, LIMITED, NX_ZERO


# --- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Fraction
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


@dataclass(frozen=True)
class Token:
    kind: str  # int | name | op | end
    text: str
    pos: int  # 1-based column


# ASCII digits and identifiers only: str.isdigit would admit '²', which int() rejects
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=|[-+*/^(),=<])|\s+")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    while i < len(source):
        match = _TOKEN.match(source, i)
        if match is None:
            raise ParseError(f"unexpected character {source[i]!r}", i + 1)
        if match.lastgroup:
            tokens.append(Token(match.lastgroup, match.group(), i + 1))
        i = match.end()
    tokens.append(Token("end", "", len(source) + 1))
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


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.current
        self.index += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}", tok.pos)
        return self.advance()

    def at_op(self, *texts: str) -> bool:
        return self.current.kind == "op" and self.current.text in texts

    def parse_compare(self) -> Expr:
        left = self.parse_expr()
        if self.at_op(*_COMPARISONS):
            tok = self.advance()
            right = self.parse_expr()
            return Cmp(tok.text, left, right, tok.pos)
        return left

    def parse_left_assoc(self, operand: Callable[[], Expr], *ops: str) -> Expr:
        node = operand()
        while self.at_op(*ops):
            tok = self.advance()
            node = BinOp(tok.text, node, operand(), tok.pos)
        return node

    def parse_expr(self) -> Expr:
        return self.parse_left_assoc(self.parse_term, "+", "-")

    def parse_term(self) -> Expr:
        return self.parse_left_assoc(self.parse_factor, "*", "/")

    def parse_factor(self) -> Expr:
        node = self.parse_atom()
        if self.at_op("^"):
            tok = self.advance()
            exponent = self.parse_exponent()
            node = Pow(node, exponent, tok.pos)
        return node

    def parse_exponent(self) -> Fraction:
        if self.current.kind == "int":
            return Fraction(int(self.advance().text))
        self.expect_op("(")
        value = self.parse_rational()
        self.expect_op(")")
        return value

    def parse_rational(self) -> Fraction:
        negative = False
        if self.at_op("-"):
            self.advance()
            negative = True
        tok = self.current
        if tok.kind != "int":
            raise ParseError("expected an integer", tok.pos)
        self.advance()
        numerator = int(tok.text)
        denominator = 1
        if self.at_op("/"):
            self.advance()
            den_tok = self.current
            if den_tok.kind != "int" or int(den_tok.text) == 0:
                raise ParseError("expected a positive integer denominator", den_tok.pos)
            self.advance()
            denominator = int(den_tok.text)
        value = Fraction(numerator, denominator)
        return -value if negative else value

    def parse_atom(self) -> Expr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return Lit(Fraction(int(tok.text)), tok.pos)
        if tok.kind == "op" and tok.text == "-":
            # binds looser than '^' so canonical text like -rho^2 means -(rho^2)
            self.advance()
            return Unary("-", self.parse_factor(), tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            self.advance()
            if tok.text in _SYMBOLS:
                return Sym(tok.text, tok.pos)
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return Unary(tok.text, arg, tok.pos)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        raise ParseError("expected a value", tok.pos)


def _parse_items(source: str, many: bool) -> list[Expr]:
    parser = Parser(source)
    try:
        items = [parser.parse_compare()]
        while many and parser.at_op(","):
            parser.advance()
            items.append(parser.parse_compare())
    except RecursionError:
        raise SolidusError(_TOO_DEEP) from None
    tok = parser.current
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)
    return items


def parse(source: str) -> Expr:
    """Parse one expression or comparison; raises ParseError with a column."""
    return _parse_items(source, many=False)[0]


def parse_expr_list(source: str) -> list[Expr]:
    """Parse a comma-separated list of expressions."""
    return _parse_items(source, many=True)


# --- evaluator --------------------------------------------------------------------


class EvalError(SolidusError):
    """Domain error during evaluation, annotated with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos})")
        self.pos = pos


def _power(base: ExternalNum, exponent: Fraction) -> ExternalNum:
    if exponent.denominator == 1:
        return _integer_power(base, exponent.numerator)
    p = base.rep.num
    # a fractional power needs a precise base rho^q: one term, coefficient c/den = 1
    if base.nx != NX_ZERO or not base.rep.is_polynomial() or len(p.ks) != 1 or p.ks[0][1] != p.den:
        raise SolidusError("power base must be a pure power of rho")
    return ExternalNum(RhoPoly.rho_power(Fraction(p.ks[0][0], p.grid) * exponent))


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
    """Bottom-up evaluation to a canonical external number (or a comparison bool)."""
    try:
        return _evaluate(expr)
    except RecursionError:
        raise SolidusError(_TOO_DEEP) from None


def _evaluate(expr: Expr) -> ExternalNum | bool:
    if isinstance(expr, Lit):
        return ExternalNum(expr.value)
    if isinstance(expr, Sym):
        return _SYMBOLS[expr.name]
    if isinstance(expr, Cmp):
        return _COMPARISONS[expr.op](_value(expr.left), _value(expr.right))
    if isinstance(expr, Unary):
        op, args = _FUNCTIONS[expr.op], (_value(expr.arg),)
    elif isinstance(expr, BinOp):
        op, args = _BINARY[expr.op], (_value(expr.left), _value(expr.right))
    elif isinstance(expr, Pow):
        op, args = _power, (_value(expr.base), expr.exponent)
    else:
        raise EvalError("unknown expression node", getattr(expr, "pos", 1))
    try:
        return op(*args)
    except SolidusError as exc:
        raise EvalError(str(exc), expr.pos) from None


def _value(expr: Expr) -> ExternalNum:
    result = _evaluate(expr)
    if isinstance(result, bool):
        raise EvalError("comparison used as a value", expr.pos)
    return result


def eval_text(source: str) -> ExternalNum | bool:
    return evaluate(parse(source))
