"""The term kernel on ``Fraction`` pairs, kept as a test-only reference.

Before the integer-grid kernel, ``RhoPoly`` stored a tuple of ``(exponent,
coefficient)`` pairs of ``Fraction``s, strictly decreasing in the exponent and
with no zero coefficient, and computed on them directly.  This module is that
arithmetic, on plain tuples: a dict merge, a dict product, shift, scale, the
polynomial branch of ``series_expand``, the ``PreciseNum`` normalisation and
the long division with its exponent-step termination bound.  It shares no code
with ``solidus.field``; compare its results with a ``RhoPoly``'s ``terms``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def collect(pairs) -> tuple:
    """Merge duplicate exponents in a dict, drop zeros, sort by decreasing exponent."""
    acc: dict = {}
    for e, c in pairs:
        e, c = Fraction(e), Fraction(c)
        acc[e] = acc[e] + c if e in acc else c
    return tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c)


def add(a, b) -> tuple:
    return collect(a + b)


def neg(a) -> tuple:
    return tuple((e, -c) for e, c in a)


def mul(a, b) -> tuple:
    return collect((e1 + e2, c1 * c2) for e1, c1 in a for e2, c2 in b)


def shift(a, dq) -> tuple:
    return tuple((e + dq, c) for e, c in a)


def scale(a, f) -> tuple:
    return tuple((e, c * f) for e, c in a) if f else ()


def truncate(a, cutoff, strict: bool) -> tuple:
    """The polynomial branch of ``series_expand``: the terms above the cutoff."""
    return tuple((e, c) for e, c in a if (e > cutoff if strict else e >= cutoff))


def normalize(num, den) -> tuple:
    """``num/den`` with the denominator made monic of degree zero."""
    if not num:
        return (), ((Fraction(0), Fraction(1)),)
    e, c = den[0]
    return scale(shift(num, -e), 1 / c), scale(shift(den, -e), 1 / c)


def exponent_step(exponents) -> Fraction:
    """Generator gcd(numerators)/lcm(denominators) of the subgroup of Q the exponents span."""
    num_gcd, den_lcm = 0, 1
    for q in exponents:
        num_gcd = math.gcd(num_gcd, abs(q.numerator))
        den_lcm = math.lcm(den_lcm, q.denominator)
    return Fraction(num_gcd, den_lcm) if num_gcd else Fraction(1)


def long_division(num, den, floor, strict: bool) -> tuple:
    """``(quotient, remainder)`` of num by a monic degree-zero den, quotient exponents
    above ``floor`` (or at it, when not ``strict``)."""
    floor = Fraction(floor)
    step = exponent_step([e for e, _ in num] + [e for e, _ in den] + [floor])
    span = (num[0][0] if num else floor) - floor
    max_steps = int(span / step) + len(num) + len(den) + 8
    out, rem = [], num
    while rem:
        e, c = rem[0]
        if e < floor or (strict and e == floor):
            break
        out.append((e, c))
        rem = add(rem, neg(scale(shift(den, e), c)))
        assert len(out) <= max_steps, "long division exceeded its termination bound"
    return tuple(out), rem
