"""The shrink candidates on ``Fraction``s, kept as a test-only reference.

Before ``generate`` shrank on int pairs, it read a polynomial's terms as
``Fraction`` pairs through ``RhoPoly.terms`` and a threshold through
``Neutrix.q``, simplified each rational by the rule below, and built every
candidate back through ``RhoPoly(terms)`` and ``Neutrix(q, closed)``.  This
module is that rule.  It shares no candidate code with ``solidus.generate``;
compare its candidates with ``generate._candidates``, element for element.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from solidus.external import ExternalNum
from solidus.field import PreciseNum, RhoPoly
from solidus.halfline import Halfline
from solidus.neutrix import FULL, NX_ZERO, Neutrix


def complexity(x: Fraction) -> tuple[int, int]:
    return (x.denominator, abs(x.numerator))


def fraction_candidates(x: Fraction) -> Iterator[Fraction]:
    # every candidate is strictly simpler, so greedy shrinking cannot cycle
    seen = {x}
    for candidate in (
        Fraction(x.numerator // x.denominator),
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(x.numerator // 2, x.denominator),
    ):
        if candidate not in seen and complexity(candidate) < complexity(x):
            seen.add(candidate)
            yield candidate


def poly_candidates(p: RhoPoly) -> Iterator[RhoPoly]:
    terms = list(p.terms)
    # fewer terms first
    for i in range(len(terms)):
        yield RhoPoly(tuple(terms[:i] + terms[i + 1 :]))
    # simpler exponents, then simpler coefficients
    for i, (e, c) in enumerate(terms):
        for e2 in fraction_candidates(e):
            yield RhoPoly(terms[:i] + [(e2, c)] + terms[i + 1 :])
    for i, (e, c) in enumerate(terms):
        for c2 in fraction_candidates(c):
            if c2 != 0:
                yield RhoPoly(terms[:i] + [(e, c2)] + terms[i + 1 :])


def precise_candidates(x: PreciseNum) -> Iterator[PreciseNum]:
    if not x.is_polynomial():
        yield PreciseNum(x.num)
    for num2 in poly_candidates(x.num):
        yield PreciseNum(num2, x.den)


def neutrix_candidates(nx: Neutrix) -> Iterator[Neutrix]:
    if nx not in (NX_ZERO, FULL) and nx.q != 0:
        for q2 in fraction_candidates(nx.q):
            yield Neutrix(q2, nx.closed)


def candidates(value) -> Iterator:
    if isinstance(value, ExternalNum):
        for rep2 in precise_candidates(value.rep):
            yield ExternalNum(rep2, value.nx)
        for nx2 in neutrix_candidates(value.nx):
            yield ExternalNum(value.rep, nx2)
    elif isinstance(value, PreciseNum):
        yield from precise_candidates(value)
    elif isinstance(value, Neutrix):
        yield from neutrix_candidates(value)
    elif isinstance(value, Halfline):
        for bound2 in candidates(value.bound):
            yield Halfline(value.side, value.kind, bound2)
