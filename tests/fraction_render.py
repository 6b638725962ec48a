"""The ``Fraction`` renderer, kept as a test-only reference.

Before ``field.render_poly`` and ``neutrix.render_neutrix`` printed from the
stored int pairs, they printed from ``RhoPoly.terms`` and ``Neutrix.q``, one
``Fraction`` per exponent and coefficient, and refused a number past the
int/str digit limit before calling ``str``.  This module prints that way.
Compare its text and its refusals with the renderers in ``solidus``.
"""

from __future__ import annotations

from fractions import Fraction

from solidus.errors import ResourceLimitError
from solidus.field import digit_limit
from solidus.neutrix import FULL, NX_ZERO


def render_rational(q: Fraction) -> str:
    """``str(q)``, or ResourceLimitError where str would exceed the digit limit."""
    limit = digit_limit()
    # n < 2**(3*limit) <= 10**limit decides most ints without the power
    if limit and any(n.bit_length() > 3 * limit and n >= 10**limit for n in (abs(q.numerator), q.denominator)):
        raise ResourceLimitError(f"a number of more than {limit} digits is too long to print")
    return str(q)


def render_exponent(q: Fraction) -> str:
    text = render_rational(q)
    if q.denominator == 1 and q > 0:
        return f"rho^{text}" if q != 1 else "rho"
    return f"rho^({text})"


def render_poly(p) -> str:
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for i, (e, c) in enumerate(p.terms):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = render_rational(mag)
        elif mag == 1:
            body = render_exponent(e)
        else:
            body = f"{render_rational(mag)}*{render_exponent(e)}"
        if i == 0:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def render_precise(x) -> str:
    if x.is_polynomial():
        return render_poly(x.num)
    return f"({render_poly(x.num)})/({render_poly(x.den)})"


def render_neutrix(a) -> str:
    if a == NX_ZERO:
        return "0"
    if a == FULL:
        return "M"
    letter = "L" if a.closed else "o"
    if a.q == 0:
        return letter
    return f"{render_exponent(a.q)}*{letter}"


def render_external(alpha) -> str:
    if alpha.nx == NX_ZERO:
        return render_precise(alpha.rep)
    if alpha.rep.is_zero():
        return render_neutrix(alpha.nx)
    return f"{render_precise(alpha.rep)} + {render_neutrix(alpha.nx)}"
