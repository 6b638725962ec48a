"""The lattice of magnitudes (neutrices) and magnitude-level operations.

A neutrix is a convex additive subgroup of the precise field.  The computable
family implemented here has four shapes, all cut out by the degree valuation:

    ZERO         {0}
    OPEN_CUT(q)  {x : degree(x) < q}    -- rho^q times the infinitesimals
    CLOSED_CUT(q){x : degree(x) <= q}   -- rho^q times the limited numbers
    FULL         the entire precise field

This family is closed under addition (= maximum), multiplication and scaling,
contains every idempotent the axioms force, and supplies witnesses for all the
existential axioms.  Families with thresholds not of this shape are out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import NotAboveUnityError, NotIdempotentError, ZeroScalarError
from .field import (
    Ordering,
    PreciseLike,
    PreciseNum,
    RationalLike,
    RhoPoly,
    _as_fraction,
    _render_exponent,
)


class NeutrixKind(Enum):
    ZERO = "zero"
    OPEN_CUT = "open_cut"
    CLOSED_CUT = "closed_cut"
    FULL = "full"


@dataclass(frozen=True)
class Neutrix:
    """A magnitude: one of the four degree-cut shapes above.

    ``q`` is the threshold exponent; it is 0 (and meaningless) for ZERO and
    FULL.  Immutable and hashable.
    """

    kind: NeutrixKind
    q: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q", _as_fraction(self.q))
        if self.kind in (NeutrixKind.ZERO, NeutrixKind.FULL) and self.q != 0:
            raise ValueError(f"{self.kind.name} carries no threshold exponent")

    def sort_key(self) -> tuple:
        # ZERO below all cuts; OPEN_CUT(q) directly below CLOSED_CUT(q); FULL on top.
        if self.kind is NeutrixKind.ZERO:
            return (0, Fraction(0), 0)
        if self.kind is NeutrixKind.OPEN_CUT:
            return (1, self.q, 0)
        if self.kind is NeutrixKind.CLOSED_CUT:
            return (1, self.q, 1)
        return (2, Fraction(0), 0)

    def __str__(self) -> str:
        return render_neutrix(self)

    def __repr__(self) -> str:
        return f"Neutrix({render_neutrix(self)})"


def open_cut(q: RationalLike) -> Neutrix:
    return Neutrix(NeutrixKind.OPEN_CUT, _as_fraction(q))


def closed_cut(q: RationalLike) -> Neutrix:
    return Neutrix(NeutrixKind.CLOSED_CUT, _as_fraction(q))


NX_ZERO = Neutrix(NeutrixKind.ZERO)
#: The maximal magnitude below 1: all elements of negative degree.
INFINITESIMALS = open_cut(0)
#: The minimal magnitude above 1: all elements of degree at most zero.
LIMITED = closed_cut(0)
FULL = Neutrix(NeutrixKind.FULL)

IDEMPOTENTS = (NX_ZERO, INFINITESIMALS, LIMITED, FULL)


def nx_compare(a: Neutrix, b: Neutrix) -> Ordering:
    """Total order by set inclusion; EQ only for identical shape and threshold."""
    ka, kb = a.sort_key(), b.sort_key()
    if ka == kb:
        return Ordering.EQ
    return Ordering.LT if ka < kb else Ordering.GT


def nx_add(a: Neutrix, b: Neutrix) -> Neutrix:
    """Sum of magnitudes: the larger of the two."""
    return b if nx_compare(a, b) is Ordering.LT else a


def nx_mul(a: Neutrix, b: Neutrix) -> Neutrix:
    """Product of magnitudes.

    Zero annihilates; FULL absorbs everything else; between the cuts the
    thresholds add, with an open cut on either side forcing an open cut (the
    product of something below rho^q and something at or below rho^r stays
    below rho^(q+r)).
    """
    if a.kind is NeutrixKind.ZERO or b.kind is NeutrixKind.ZERO:
        return NX_ZERO
    if a.kind is NeutrixKind.FULL or b.kind is NeutrixKind.FULL:
        return FULL
    if a.kind is NeutrixKind.CLOSED_CUT and b.kind is NeutrixKind.CLOSED_CUT:
        return closed_cut(a.q + b.q)
    return open_cut(a.q + b.q)


def nx_scale(p: PreciseLike, a: Neutrix) -> Neutrix:
    """Multiply a magnitude by a nonzero precise element.

    Only the degree of ``p`` matters: coefficients are absorbed by the group.
    """
    p = PreciseNum.of(p)
    if p.is_zero():
        raise ZeroScalarError("cannot scale a neutrix by zero")
    if a.kind in (NeutrixKind.ZERO, NeutrixKind.FULL):
        return a
    return Neutrix(a.kind, a.q + p.degree())


def nx_contains(a: Neutrix, p: PreciseLike) -> bool:
    """Membership of a precise element, decided by the degree valuation."""
    p = PreciseNum.of(p)
    if a.kind is NeutrixKind.ZERO:
        return p.is_zero()
    if a.kind is NeutrixKind.FULL:
        return True
    d = p.degree()
    return d < a.q if a.kind is NeutrixKind.OPEN_CUT else d <= a.q


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
    if a.kind is NeutrixKind.OPEN_CUT:
        return PreciseNum.of(RhoPoly.rho_power(a.q)), INFINITESIMALS
    if a.kind is NeutrixKind.CLOSED_CUT:
        return PreciseNum.of(RhoPoly.rho_power(a.q)), LIMITED
    return PreciseNum.of(1), a


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
        return e == LIMITED or nx_compare(e, INFINITESIMALS) is not Ordering.GT
    return e in (NX_ZERO, FULL)


def render_neutrix(a: Neutrix) -> str:
    if a.kind is NeutrixKind.ZERO:
        return "0"
    if a.kind is NeutrixKind.FULL:
        return "M"
    letter = "o" if a.kind is NeutrixKind.OPEN_CUT else "L"
    if a.q == 0:
        return letter
    return f"{_render_exponent(a.q)}*{letter}"
