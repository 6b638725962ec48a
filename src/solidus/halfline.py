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
from .field import Ordering, PreciseNum, RhoPoly
from .neutrix import Neutrix, NeutrixKind, nx_compare
from .external import (
    ExternalNum,
    canonicalize,
    classify,
    Classification,
    ext_add,
    ext_compare,
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
    return ext_compare(ext_add(x, magnitude(b)), b) is Ordering.LT


def hl_member(h: Halfline, x: ExternalNum) -> bool:
    if h.side is Side.UPPER:
        # an upper halfline is the exact complement of its lower counterpart
        side, kind = _COMPLEMENT[(h.side, h.kind)]
        return not hl_member(Halfline(side, kind, h.bound), x)
    b = h.bound
    if h.kind is HalflineKind.CLOSED:
        return ext_compare(x, b) is not Ordering.GT
    if h.kind is HalflineKind.OPEN:
        return ext_compare(x, b) is Ordering.LT
    return _below_every_representative(x, b)


def is_full_domain(h: Halfline) -> bool:
    if h.bound.nx.kind is not NeutrixKind.FULL:
        return False
    return (h.side, h.kind) in (
        (Side.LOWER, HalflineKind.CLOSED),
        (Side.UPPER, HalflineKind.STRONGLY_OPEN),
    )


_COMPLEMENT = {
    (Side.LOWER, HalflineKind.CLOSED): (Side.UPPER, HalflineKind.OPEN),
    (Side.LOWER, HalflineKind.OPEN): (Side.UPPER, HalflineKind.CLOSED),
    (Side.LOWER, HalflineKind.STRONGLY_OPEN): (Side.UPPER, HalflineKind.STRONGLY_OPEN),
    (Side.UPPER, HalflineKind.CLOSED): (Side.LOWER, HalflineKind.OPEN),
    (Side.UPPER, HalflineKind.OPEN): (Side.LOWER, HalflineKind.CLOSED),
    (Side.UPPER, HalflineKind.STRONGLY_OPEN): (Side.LOWER, HalflineKind.STRONGLY_OPEN),
}


def hl_complement(h: Halfline) -> Halfline:
    """The complementary halfline; membership partitions the domain exactly."""
    if is_full_domain(h):
        raise DegenerateDomainError("the full-domain halfline has an empty complement")
    side, kind = _COMPLEMENT[(h.side, h.kind)]
    return Halfline(side, kind, h.bound)


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
    """Maximum of a nonempty finite set; a magnitude when all items are magnitudes."""
    items = list(items)
    if not items:
        raise EmptySetError("zup of an empty set")
    best = items[0]
    for x in items[1:]:
        if ext_compare(x, best) is Ordering.GT:
            best = x
    return best


def winf_finite(items: Iterable[ExternalNum]) -> ExternalNum:
    """Minimum of a nonempty finite set."""
    items = list(items)
    if not items:
        raise EmptySetError("winf of an empty set")
    best = items[0]
    for x in items[1:]:
        if ext_compare(x, best) is Ordering.LT:
            best = x
    return best


def magnitude_gap_witness(a: Neutrix, b: Neutrix) -> PreciseNum:
    """A precise element strictly between two magnitudes a < b."""
    if nx_compare(a, b) is not Ordering.LT:
        raise InternalError("magnitude witness requested for a non-increasing pair")
    if a.kind is NeutrixKind.ZERO:
        if b.kind is NeutrixKind.FULL:
            return PreciseNum.of(1)
        q = b.q - 1 if b.kind is NeutrixKind.OPEN_CUT else b.q
        return PreciseNum.of(RhoPoly.rho_power(q))
    if b.kind is NeutrixKind.FULL:
        return PreciseNum.of(RhoPoly.rho_power(a.q + 1))
    if a.kind is NeutrixKind.OPEN_CUT:
        # rho^(a.q) escapes a; it stays inside b whether b is open above a.q
        # or closed at a.q or beyond.
        return PreciseNum.of(RhoPoly.rho_power(a.q))
    # a closed at a.q: the witness degree must exceed a.q
    q = (a.q + b.q) / 2 if b.kind is NeutrixKind.OPEN_CUT else b.q
    return PreciseNum.of(RhoPoly.rho_power(q))


def separate_precise(x: ExternalNum, y: ExternalNum) -> PreciseNum:
    """A precise element p with x < p < y.

    Shift by the representative of x so that x becomes a magnitude; then
    either both sides are magnitudes (pick a power of rho between the
    thresholds) or the upper side is zeroless and half its representative
    works, because half of an element outside a divisible convex group stays
    outside.
    """
    if ext_compare(x, y) is not Ordering.LT:
        raise NotStrictlyOrderedError(f"{x} is not strictly below {y}")
    a = x.rep
    shifted = ext_sub(y, canonicalize(a))
    if classify(shifted) is Classification.PURE_NEUTRIX:
        p = a + magnitude_gap_witness(x.nx, shifted.nx)
    else:
        p = a + shifted.rep / 2
    witness = canonicalize(p)
    if not (x < witness < y):
        raise InternalError("separation witness failed its postcondition")
    return p


def separate_from_hole(x: ExternalNum, tau: ExternalNum) -> PreciseNum:
    """A precise p with x < p and p below every representative of tau.

    Requires x + e(tau) < tau.  Shift by the representative of x; the shifted
    bound is zeroless and half its representative is the witness.
    """
    if not _below_every_representative(x, tau):
        raise PreconditionFailedError(f"{x} is not below every representative of {tau}")
    a = x.rep
    shifted = ext_sub(tau, canonicalize(a))
    if classify(shifted) is Classification.PURE_NEUTRIX:
        raise InternalError("hole bound degenerated to a magnitude despite the precondition")
    p = a + shifted.rep / 2
    witness = canonicalize(p)
    if not (x < witness and _below_every_representative(witness, tau)):
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
