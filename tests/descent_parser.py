"""The recursive-descent parser, kept as a test-only reference.

Before the precedence-climbing loop, ``parser.py`` built frozen-dataclass
nodes, parsed the binary operators by one recursion per level of ``_LEVELS``
(so every factor passed through both levels and the factor level), matched
blanks as a token alternative and stored a ``Pow`` node's exponent as a
``Fraction``.  Its only depth limit was Python's recursion limit.  This module
is that parser as it was.  ``outcome`` puts a tree or error of either parser
in one comparable form, and ``compare`` checks that ``solidus.parser.parse``
and ``parse_expr_list`` give this parser's trees, error texts and columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Union

import solidus.parser
from solidus.errors import ParseError, ResourceLimitError, SolidusError
from solidus.field import digit_limit
from solidus.parser import _COMPARISONS, _FUNCTIONS, _SYMBOLS


@dataclass(frozen=True)
class Lit:
    value: int
    pos: int


@dataclass(frozen=True)
class Sym:
    name: str
    pos: int


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expr"
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str
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
    op: str
    left: "Expr"
    right: "Expr"
    pos: int


Expr = Union[Lit, Sym, Unary, BinOp, Pow, Cmp]

_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><=|[-+*/^(),=<])|(?P<bad>\S)|\s+")
_SUSPECT = re.compile(r"[^0-9A-Za-z_<=+*/^(),\-\s]")


def tokenize(source: str, start: int = 0) -> list[tuple[str, str, int]]:
    limit = digit_limit()
    if _SUSPECT.search(source) or limit and len(source) > limit:
        for match in _TOKEN.finditer(source):
            kind, text, column = match.lastgroup, match.group(), start + match.start() + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {text!r}", column)
            if kind == "int" and limit and len(text) > limit:
                raise ParseError(f"integer literal longer than {limit} digits", column)
    tokens = [(m.lastgroup, m.group(), start + m.start() + 1) for m in _TOKEN.finditer(source) if m.lastgroup]
    tokens.append(("end", "", start + len(source) + 1))
    return tokens


_LEVELS = (("+", "-"), ("*", "/"))


class Parser:
    def __init__(self, source: str, start: int = 0):
        self.tokens = tokenize(source, start)
        self.index = 0

    def take(self, *ops: str) -> tuple[str, str, int] | None:
        tok = self.tokens[self.index]
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
        raise ResourceLimitError("expression nested too deeply") from None
    kind, text, column = parser.tokens[parser.index]
    if kind != "end":
        raise ParseError(f"unexpected {text!r}", column)
    return items


def parse(source: str) -> Expr:
    return _parse_items(source, 0, many=False)[0]


def parse_expr_list(source: str, start: int = 0) -> list[Expr]:
    return _parse_items(source, start, many=True)


# --- comparison ---------------------------------------------------------------------

FIELDS = {cls.__name__: tuple(f.name for f in fields(cls)) for cls in (Lit, Sym, Unary, BinOp, Pow, Cmp)}


def shape(node) -> tuple:
    """A tree of either parser as nested tuples: the class name, then each field by name.
    An exponent is its numerator and denominator with their types, a ``Fraction``'s read off it."""
    items = []
    for name in FIELDS[type(node).__name__]:
        value = getattr(node, name)
        if name == "exponent":
            pair = (value.numerator, value.denominator) if isinstance(value, Fraction) else value
            value = tuple((type(v).__name__, v) for v in pair)
        elif name in ("arg", "left", "right", "base"):
            value = shape(value)
        items.append((name, value))
    return type(node).__name__, tuple(items)


def outcome(parse_fn, text: str, *args):
    """The shape of each tree ``parse_fn(text, *args)`` returns, or its error's type, text and column."""
    try:
        result = parse_fn(text, *args)
    except SolidusError as exc:
        return type(exc).__name__, str(exc), exc.column
    return [shape(node) for node in result] if isinstance(result, list) else shape(result)


_COMMAND_WORD = re.compile(r"^\s*:\S*")


def compare(line: str, start: int = 0):
    """Assert that both parsers agree on ``line``, a leading command word cut off, read by
    ``parse`` and by ``parse_expr_list`` from ``start``; return this parser's ``parse`` outcome."""
    text = _COMMAND_WORD.sub("", line, count=1)
    old = outcome(parse, text)
    assert outcome(solidus.parser.parse, text) == old, text
    assert outcome(solidus.parser.parse_expr_list, text, start) == outcome(parse_expr_list, text, start), text
    return old
