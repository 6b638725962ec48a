"""The lattice of magnitudes (neutrices) and magnitude-level operations.

A neutrix is a convex additive subgroup of the precise field.  Every one
implemented here is a cut of the degree valuation, ``Neutrix(q, closed)``:

    Neutrix(q, False)   {x : degree(x) < q}    -- rho^q times the infinitesimals
    Neutrix(q, True)    {x : degree(x) <= q}   -- rho^q times the limited numbers

The two ends of the lattice are cuts at infinite thresholds: ``NX_ZERO`` is
the closed cut at -inf (the zero element has degree -inf) and ``FULL`` is the
open cut at +inf.  The field order (q, closed) is set inclusion, so the four
shapes {0} < rho^q*o < rho^q*L < M need no case analysis: test a shape with
``== NX_ZERO``, ``== FULL`` or ``.closed``.

This family is closed under addition (= maximum), multiplication and scaling,
contains every idempotent the axioms force, and supplies witnesses for all the
existential axioms.  Families with thresholds not of this shape are out of
scope.

``Neutrix`` is an immutable ``__slots__`` class whose comparisons read an int
key computed at construction; ``nx_mul``, ``nx_scale`` and ``nx_contains``
read the key's rank of the threshold (-inf, finite or +inf), so none of them
compares a ``Fraction`` with a float infinity.
"""

from __future__ import annotations

import functools
import math

from .errors import NotAboveUnityError, NotIdempotentError
from .field import (
    NEG_INFINITY,
    PreciseLike,
    PreciseNum,
    RationalLike,
    RhoPoly,
    _Immutable,
    _as_fraction,
    _render_exponent,
)


@functools.total_ordering
class Neutrix(_Immutable):
    """A magnitude: the degree cut below ``q``, including ``q`` when ``closed``.

    ``q`` is an exact rational, or -inf for ``NX_ZERO`` and +inf for ``FULL``.
    The order is set inclusion, the order of ``(q, closed)``.  Construction
    computes an int key, ``(rank, numerator, denominator, closed)`` with rank
    -1, 0 or +1 for -inf, a finite ``q`` or +inf: ``==`` compares keys, ``<``
    compares ranks, then ``q`` by cross-multiplication, then ``closed``.
    Immutable and hashable, with the hash of ``(q, closed)``.
    """

    __slots__ = ("q", "closed", "_rank", "_key")

    def __init__(self, q: RationalLike | float, closed: bool):
        if isinstance(q, float) and math.isinf(q):
            if closed != (q < 0):
                raise ValueError("the cuts at infinity are NX_ZERO (-inf, closed) and FULL (+inf, open)")
            rank, n, d = (-1 if q < 0 else 1), 0, 1
        else:
            q = _as_fraction(q)
            rank, n, d = 0, q.numerator, q.denominator
        _set_q(self, q)
        _set_closed(self, closed)
        _set_rank(self, rank)
        _set_key(self, (rank, n, d, closed))

    def __reduce__(self):
        return Neutrix, (self.q, self.closed)

    def __eq__(self, other: object) -> bool:
        return self._key == other._key if other.__class__ is Neutrix else NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.closed))

    def __lt__(self, other: "Neutrix") -> bool:
        # total_ordering derives <=, > and >= from this and __eq__, passing NotImplemented on
        if other.__class__ is not Neutrix:
            return NotImplemented
        r, n, d, c = self._key
        r2, n2, d2, c2 = other._key
        if r != r2:
            return r < r2
        x, y = n * d2, n2 * d  # 0 * 1 at both infinities
        return x < y or (x == y and c < c2)

    def __str__(self) -> str:
        return render_neutrix(self)

    def __repr__(self) -> str:
        return f"Neutrix({render_neutrix(self)})"


_set_q = Neutrix.q.__set__
_set_closed = Neutrix.closed.__set__
_set_rank = Neutrix._rank.__set__
_set_key = Neutrix._key.__set__


def open_cut(q: RationalLike) -> Neutrix:
    return Neutrix(_as_fraction(q), False)


def closed_cut(q: RationalLike) -> Neutrix:
    return Neutrix(_as_fraction(q), True)


NX_ZERO = Neutrix(NEG_INFINITY, True)
#: The maximal magnitude below 1: all elements of negative degree.
INFINITESIMALS = open_cut(0)
#: The minimal magnitude above 1: all elements of degree at most zero.
LIMITED = closed_cut(0)
FULL = Neutrix(math.inf, False)

IDEMPOTENTS = (NX_ZERO, INFINITESIMALS, LIMITED, FULL)


def nx_add(a: Neutrix, b: Neutrix) -> Neutrix:
    """Sum of magnitudes: the larger of the two."""
    return b if a < b else a


def nx_mul(a: Neutrix, b: Neutrix) -> Neutrix:
    """Product of magnitudes.

    Zero annihilates; otherwise the thresholds add (FULL's +inf absorbs every
    finite one), and an open cut on either side forces an open cut (the
    product of something below rho^q and something at or below rho^r stays
    below rho^(q+r)).
    """
    if a._rank < 0 or b._rank < 0:
        return NX_ZERO
    if a._rank or b._rank:
        return FULL
    return Neutrix(a.q + b.q, a.closed and b.closed)


def nx_scale(p: PreciseLike, a: Neutrix) -> Neutrix:
    """Multiply a magnitude by a precise element: ``pA = {px : x in A}``.

    Scaling by zero gives ``NX_ZERO``, for every ``A``, ``FULL`` included.
    Otherwise only the degree of ``p`` matters: coefficients are absorbed by
    the group.
    """
    p = PreciseNum.of(p)
    if p.is_zero():
        return NX_ZERO
    # the cuts at infinity are fixed by every nonzero scalar
    return a if a._rank else Neutrix(a.q + p.degree(), a.closed)


def nx_contains(a: Neutrix, p: PreciseLike) -> bool:
    """Membership of a precise element, decided by the degree valuation."""
    num = PreciseNum.of(p).num
    if a._rank:
        # FULL holds everything, NX_ZERO only zero
        return a._rank > 0 or num.is_zero()
    c = num.compare_degree(a.q)
    return c <= 0 if a.closed else c < 0


def is_idempotent(a: Neutrix) -> bool:
    return nx_mul(a, a) == a


def _require_idempotent_above_unity(j: Neutrix) -> None:
    if not is_idempotent(j):
        raise NotIdempotentError(f"{j} is not idempotent")
    if j not in (LIMITED, FULL):
        raise NotAboveUnityError(f"{j} does not lie above 1")


def maximal_ideal(j: Neutrix) -> Neutrix:
    """Largest magnitude strictly below ``j`` absorbed by precise scalars below ``j``."""
    _require_idempotent_above_unity(j)
    return INFINITESIMALS if j == LIMITED else NX_ZERO


def decompose(a: Neutrix) -> tuple[PreciseNum, Neutrix]:
    """Write ``a`` as (precise scalar) * (idempotent magnitude).

    The idempotent part is unique; the scalar is only determined up to degree,
    and the canonical choice is the pure power rho^q.
    """
    if a in (NX_ZERO, FULL):
        return PreciseNum.of(1), a
    return PreciseNum.of(RhoPoly.rho_power(a.q)), LIMITED if a.closed else INFINITESIMALS


def is_ideal_of(e: Neutrix, j: Neutrix) -> bool:
    """Whether every precise scalar 0 <= p < j maps ``e`` into itself.

    Decided analytically: the admissible scalars have degree <= 0 for
    j = LIMITED (so any magnitude up to the infinitesimals qualifies, plus
    LIMITED itself) and unbounded degree for j = FULL (leaving only ZERO and
    FULL).  The sampled-scalar oracle in the check suite validates this table
    against the definition.
    """
    _require_idempotent_above_unity(j)
    if j == LIMITED:
        return e == LIMITED or e <= INFINITESIMALS
    return e in (NX_ZERO, FULL)


def render_neutrix(a: Neutrix) -> str:
    if a == NX_ZERO:
        return "0"
    if a == FULL:
        return "M"
    letter = "L" if a.closed else "o"
    if a.q == 0:
        return letter
    return f"{_render_exponent(a.q)}*{letter}"
