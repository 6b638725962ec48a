"""Halflines, weak suprema/infima and precise-separation constructions.

A represented halfline is a side (lower/upper), a kind and an external bound.
Lower membership:

    Closed(b)        x <= b
    Open(b)          x <  b
    StronglyOpen(b)  x + e(b) < b      (below every representative of b)

Upper membership is the exact complement of the matching lower kind, so the
closed/open labels swap under complement while strongly-open is self-dual.
The weak supremum (zup) of a represented lower halfline is its bound; what the
completeness scheme adds is that the bound is unique and the three kinds are
mutually exclusive, which the check suite exercises with explicit separating
elements produced here.

Only represented halflines are supported: no computable model satisfies the
completeness scheme for arbitrary definable cuts (the cut {x : x*x <= 2} has
no bound in this field).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import (
    DegenerateDomainError,
    EmptySetError,
    InternalError,
    NotStrictlyOrderedError,
    PreconditionFailedError,
)
from .field import PreciseNum, RhoPoly
from .neutrix import FULL, NX_ZERO, Neutrix
from .external import (
    ExternalNum,
    classify,
    Classification,
    ext_add,
    ext_sub,
    magnitude,
)


class Side(Enum):
    LOWER = "lower"
    UPPER = "upper"


class HalflineKind(Enum):
    CLOSED = "closed"
    OPEN = "open"
    STRONGLY_OPEN = "strongly_open"


@dataclass(frozen=True)
class Halfline:
    side: Side
    kind: HalflineKind
    bound: ExternalNum

    def __str__(self) -> str:
        return render_halfline(self)


def lower(kind: HalflineKind, bound: ExternalNum) -> Halfline:
    return Halfline(Side.LOWER, kind, bound)


def upper(kind: HalflineKind, bound: ExternalNum) -> Halfline:
    return Halfline(Side.UPPER, kind, bound)


def _below_every_representative(x: ExternalNum, b: ExternalNum) -> bool:
    return ext_add(x, magnitude(b)) < b


def hl_member(h: Halfline, x: ExternalNum) -> bool:
    if h.side is Side.UPPER:
        # an upper halfline is the exact complement of its lower counterpart
        return not hl_member(lower(_DUAL[h.kind], h.bound), x)
    b = h.bound
    if h.kind is HalflineKind.CLOSED:
        return x <= b
    if h.kind is HalflineKind.OPEN:
        return x < b
    return _below_every_representative(x, b)


#: The kind of the complement, whose side flips: strongly open is self-dual.
_DUAL = {
    HalflineKind.CLOSED: HalflineKind.OPEN,
    HalflineKind.OPEN: HalflineKind.CLOSED,
    HalflineKind.STRONGLY_OPEN: HalflineKind.STRONGLY_OPEN,
}


def hl_complement(h: Halfline) -> Halfline:
    """The complementary halfline; membership partitions the domain exactly."""
    # every x has x <= M and none has x + M < M: (-inf, M] and ]]M, +inf) are the domain
    full_kind = HalflineKind.CLOSED if h.side is Side.LOWER else HalflineKind.STRONGLY_OPEN
    if h.bound.nx == FULL and h.kind is full_kind:
        raise DegenerateDomainError("the full-domain halfline has an empty complement")
    side = Side.UPPER if h.side is Side.LOWER else Side.LOWER
    return Halfline(side, _DUAL[h.kind], h.bound)


def zup(h: Halfline) -> ExternalNum:
    """Weak least upper bound of a represented lower halfline."""
    if h.side is not Side.LOWER:
        raise ValueError("zup applies to lower halflines; use winf for upper ones")
    return h.bound


def winf(h: Halfline) -> ExternalNum:
    """Weak greatest lower bound of a represented upper halfline."""
    if h.side is not Side.UPPER:
        raise ValueError("winf applies to upper halflines; use zup for lower ones")
    return h.bound


def zup_finite(items: Iterable[ExternalNum]) -> ExternalNum:
    """Maximum of a nonempty finite set, the first maximal item; a magnitude
    when all items are magnitudes."""
    best = max(items, default=None)
    if best is None:
        raise EmptySetError("zup of an empty set")
    return best


def winf_finite(items: Iterable[ExternalNum]) -> ExternalNum:
    """Minimum of a nonempty finite set, the first minimal item."""
    best = min(items, default=None)
    if best is None:
        raise EmptySetError("winf of an empty set")
    return best


def magnitude_gap_witness(a: Neutrix, b: Neutrix) -> PreciseNum:
    """A precise element strictly between two magnitudes a < b."""
    if a >= b:
        raise InternalError("magnitude witness requested for a non-increasing pair")
    if a == NX_ZERO:
        if b == FULL:
            return PreciseNum.of(1)
        q = b.q if b.closed else b.q - 1
    elif b == FULL:
        q = a.q + 1
    elif not a.closed:
        # rho^(a.q) escapes a; it stays inside b whether b is open above a.q
        # or closed at a.q or beyond.
        q = a.q
    else:
        # a closed at a.q: the witness degree must exceed a.q
        q = b.q if b.closed else (a.q + b.q) / 2
    return PreciseNum.of(RhoPoly.rho_power(q))


def separate_precise(x: ExternalNum, y: ExternalNum) -> PreciseNum:
    """A precise element p with x < p < y.

    Shift by the representative of x so that x becomes a magnitude; then
    either both sides are magnitudes (pick a power of rho between the
    thresholds) or the upper side is zeroless and half its representative
    works, because half of an element outside a divisible convex group stays
    outside.
    """
    if not x < y:
        raise NotStrictlyOrderedError(f"{x} is not strictly below {y}")
    a = x.rep
    shifted = ext_sub(y, ExternalNum(a))
    if classify(shifted) is Classification.PURE_NEUTRIX:
        p = a + magnitude_gap_witness(x.nx, shifted.nx)
    else:
        p = a + shifted.rep / 2
    witness = ExternalNum(p)
    if not (x < witness < y):
        raise InternalError("separation witness failed its postcondition")
    return p


def separate_from_hole(x: ExternalNum, tau: ExternalNum) -> PreciseNum:
    """A precise p with x < p and p below every representative of tau.

    Requires x + e(tau) < tau.  Then x < tau and tau - x.rep is zeroless, so
    ``separate_precise`` takes its halving branch, x.rep + (tau.rep - x.rep)/2,
    which stays below every representative of tau.
    """
    if not _below_every_representative(x, tau):
        raise PreconditionFailedError(f"{x} is not below every representative of {tau}")
    p = separate_precise(x, tau)
    if not _below_every_representative(ExternalNum(p), tau):
        raise InternalError("hole-separation witness failed its postcondition")
    return p


_BRACKETS = {
    (Side.LOWER, HalflineKind.CLOSED): "(-inf, {}]",
    (Side.LOWER, HalflineKind.OPEN): "(-inf, {})",
    (Side.LOWER, HalflineKind.STRONGLY_OPEN): "(-inf, {}[[",
    (Side.UPPER, HalflineKind.CLOSED): "[{}, +inf)",
    (Side.UPPER, HalflineKind.OPEN): "({}, +inf)",
    (Side.UPPER, HalflineKind.STRONGLY_OPEN): "]]{}, +inf)",
}


def render_halfline(h: Halfline) -> str:
    return _BRACKETS[(h.side, h.kind)].format(h.bound)
