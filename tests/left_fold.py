"""The ``+``/``-`` chain as a left fold, kept as a test-only reference.

Before the one-pass sum, ``parser._evaluate`` evaluated ``a - b + c`` as
``(a - b) + c``: every node applied its ``ExternalNum`` operator to the whole
running sum, so each ``+`` merged that sum again.  This module evaluates a
parse tree that way.  It walks a chain's left spine in a loop instead of
recursing down it, which evaluates and applies the nodes in the same order,
so long chains fit in the recursion limit.  Compare its values and error
columns with ``solidus.parser.evaluate``'s.
"""

from __future__ import annotations

from solidus.errors import SolidusError
from solidus.external import ExternalNum
from solidus.parser import _BINARY, _COMPARISONS, _FUNCTIONS, _SYMBOLS, BinOp, Cmp, Lit, Sym, Unary, _power


def evaluate(expr):
    if isinstance(expr, Lit):
        return ExternalNum(expr.value)
    if isinstance(expr, Sym):
        return _SYMBOLS[expr.name]
    if isinstance(expr, Cmp):
        return _COMPARISONS[expr.op](evaluate(expr.left), evaluate(expr.right))
    if isinstance(expr, BinOp) and expr.op in "+-":
        nodes = []
        while isinstance(expr, BinOp) and expr.op in "+-":
            nodes.append(expr)
            expr = expr.left
        total = evaluate(expr)
        for node in reversed(nodes):
            total = _apply(node, _BINARY[node.op], total, evaluate(node.right))
        return total
    if isinstance(expr, BinOp):
        return _apply(expr, _BINARY[expr.op], evaluate(expr.left), evaluate(expr.right))
    if isinstance(expr, Unary):
        return _apply(expr, _FUNCTIONS[expr.op], evaluate(expr.arg))
    return _apply(expr, _power, evaluate(expr.base), expr.exponent)


def _apply(node, op, *args):
    try:
        return op(*args)
    except SolidusError as exc:
        if exc.column is None:
            exc.column = node.pos
        raise
