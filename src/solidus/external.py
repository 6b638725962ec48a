"""External numbers: canonical pairs (precise representative, neutrix).

An external number denotes the set rep + N = {rep + n : n in N}.  The
canonical form keeps, of the representative's expansion, exactly the terms the
neutrix cannot absorb:

    CLOSED_CUT(q) contains rho^q, so it absorbs every term of exponent <= q;
    OPEN_CUT(q) does not contain rho^q, so terms of exponent >= q survive.

With a ZERO neutrix the representative is kept verbatim (any ratio); with FULL
the representative collapses to 0.  Two canonical forms denote the same set
exactly when their neutrices are equal and their representatives are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import NotLimitedError, NotZerolessError
from .field import (
    Ordering,
    PreciseLike,
    PreciseNum,
    PRECISE_ZERO,
    render_precise,
    series_expand,
)
from .neutrix import (
    INFINITESIMALS,
    LIMITED,
    Neutrix,
    NeutrixKind,
    NX_ZERO,
    nx_add,
    nx_compare,
    nx_contains,
    nx_mul,
    nx_scale,
    render_neutrix,
)


class Classification(Enum):
    PRECISE = "Precise"
    PURE_NEUTRIX = "PureNeutrix"
    ZEROLESS_NONPRECISE = "ZerolessNonPrecise"


@dataclass(frozen=True, eq=False)
class ExternalNum:
    """Canonical external number.  Build through :func:`canonicalize`."""

    rep: PreciseNum
    nx: Neutrix

    def __add__(self, other: "ExternalLike") -> "ExternalNum":
        return ext_add(self, as_external(other))

    __radd__ = __add__

    def __neg__(self) -> "ExternalNum":
        return ext_neg(self)

    def __sub__(self, other: "ExternalLike") -> "ExternalNum":
        return ext_sub(self, as_external(other))

    def __rsub__(self, other: "ExternalLike") -> "ExternalNum":
        return ext_sub(as_external(other), self)

    def __mul__(self, other: "ExternalLike") -> "ExternalNum":
        return ext_mul(self, as_external(other))

    __rmul__ = __mul__

    def __truediv__(self, other: "ExternalLike") -> "ExternalNum":
        return ext_div(self, as_external(other))

    def __rtruediv__(self, other: "ExternalLike") -> "ExternalNum":
        return ext_div(as_external(other), self)

    def __abs__(self) -> "ExternalNum":
        return ext_abs(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExternalNum):
            return self.nx == other.nx and self.rep == other.rep
        return NotImplemented

    def __lt__(self, other: "ExternalLike") -> bool:
        return ext_compare(self, as_external(other)) is Ordering.LT

    def __le__(self, other: "ExternalLike") -> bool:
        return ext_compare(self, as_external(other)) is not Ordering.GT

    def __gt__(self, other: "ExternalLike") -> bool:
        return ext_compare(self, as_external(other)) is Ordering.GT

    def __ge__(self, other: "ExternalLike") -> bool:
        return ext_compare(self, as_external(other)) is not Ordering.LT

    def __str__(self) -> str:
        return render_external(self)

    def __repr__(self) -> str:
        return f"ExternalNum({render_external(self)})"


ExternalLike = Union[ExternalNum, PreciseLike]


def canonicalize(rep: PreciseLike, nx: Neutrix = NX_ZERO) -> ExternalNum:
    """Canonical form of rep + nx; the result denotes the same set."""
    rep = PreciseNum.of(rep)
    if nx.kind is NeutrixKind.ZERO:
        return ExternalNum(rep, nx)
    if nx.kind is NeutrixKind.FULL:
        return ExternalNum(PRECISE_ZERO, nx)
    strict = nx.kind is NeutrixKind.CLOSED_CUT
    return ExternalNum(PreciseNum(series_expand(rep, nx.q, strict=strict)), nx)


def as_external(value: ExternalLike) -> ExternalNum:
    if isinstance(value, ExternalNum):
        return value
    if isinstance(value, Neutrix):
        return canonicalize(0, value)
    return canonicalize(value)


EXT_ZERO = canonicalize(0)
EXT_ONE = canonicalize(1)


def neutrix_part(alpha: ExternalNum) -> Neutrix:
    return alpha.nx


def pure(nx: Neutrix) -> ExternalNum:
    """The magnitude nx as an external number (representative 0)."""
    return canonicalize(0, nx)


def magnitude(alpha: ExternalNum) -> ExternalNum:
    """e(alpha): the neutrix part as an external number."""
    return pure(alpha.nx)


def ext_add(a: ExternalNum, b: ExternalNum) -> ExternalNum:
    return canonicalize(a.rep + b.rep, nx_add(a.nx, b.nx))


def ext_neg(a: ExternalNum) -> ExternalNum:
    # Negating flips the representative and fixes the (symmetric) neutrix.
    return ExternalNum(-a.rep, a.nx)


def ext_sub(a: ExternalNum, b: ExternalNum) -> ExternalNum:
    return ext_add(a, ext_neg(b))


def _scale_part(coeff: PreciseNum, nx: Neutrix) -> Neutrix:
    return NX_ZERO if coeff.is_zero() else nx_scale(coeff, nx)


def ext_mul(a: ExternalNum, b: ExternalNum) -> ExternalNum:
    """Minkowski product: (a+A)(b+B) = ab + aB + bA + AB."""
    nx = nx_add(
        nx_add(_scale_part(a.rep, b.nx), _scale_part(b.rep, a.nx)),
        nx_mul(a.nx, b.nx),
    )
    return canonicalize(a.rep * b.rep, nx)


def is_zeroless(alpha: ExternalNum) -> bool:
    """True when 0 is not a member, i.e. the neutrix does not reach the representative."""
    return not nx_contains(alpha.nx, alpha.rep)


def ext_inv(b: ExternalNum) -> ExternalNum:
    """Inverse of a zeroless number: 1/rep + nx/rep^2 in canonical form."""
    if not is_zeroless(b):
        raise NotZerolessError(f"{b} contains 0 and has no inverse")
    inv_rep = 1 / b.rep
    return canonicalize(inv_rep, _scale_part(inv_rep * inv_rep, b.nx))


def ext_div(a: ExternalNum, b: ExternalNum) -> ExternalNum:
    return ext_mul(a, ext_inv(b))


def unity(alpha: ExternalNum) -> ExternalNum:
    """u(alpha) = 1 + nx/rep, the individualized multiplicative neutral element."""
    if not is_zeroless(alpha):
        raise NotZerolessError(f"{alpha} contains 0 and has no unity")
    return canonicalize(1, _scale_part(1 / alpha.rep, alpha.nx))


def ext_compare(a: ExternalNum, b: ExternalNum) -> Ordering:
    """Decision procedure for the total order on external numbers.

    With delta = rep difference and C the combined neutrix: when C absorbs
    delta the sets overlap and inclusion of neutrices decides; otherwise the
    sets are disjoint and the sign of delta decides.
    """
    delta = a.rep - b.rep
    combined = nx_add(a.nx, b.nx)
    if nx_contains(combined, delta):
        return nx_compare(a.nx, b.nx)
    return Ordering.from_sign(delta.sign())


def ext_member(y: PreciseLike, alpha: ExternalNum) -> bool:
    """Whether the precise element y belongs to the set alpha."""
    return nx_contains(alpha.nx, PreciseNum.of(y) - alpha.rep)


def classify(alpha: ExternalNum) -> Classification:
    if alpha.nx.kind is NeutrixKind.ZERO:
        return Classification.PRECISE
    if nx_contains(alpha.nx, alpha.rep):
        return Classification.PURE_NEUTRIX
    return Classification.ZEROLESS_NONPRECISE


def ext_abs(alpha: ExternalNum) -> ExternalNum:
    """Representative-sign absolute value; the neutrix is unchanged."""
    return ext_neg(alpha) if alpha.rep.sign() < 0 else alpha


def is_limited(alpha: ExternalNum) -> bool:
    """Bounded by a limited element: representative degree <= 0 and nx <= LIMITED."""
    if nx_compare(alpha.nx, LIMITED) is Ordering.GT:
        return False
    return alpha.rep.degree() <= 0


def shadow(alpha: ExternalNum) -> ExternalNum:
    """Blur a limited number by the infinitesimals: rep + (nx + o)."""
    if not is_limited(alpha):
        raise NotLimitedError(f"{alpha} is not limited")
    return canonicalize(alpha.rep, nx_add(alpha.nx, INFINITESIMALS))


def ext_disjoint(a: ExternalNum, b: ExternalNum) -> bool:
    """Whether the two sets have empty intersection."""
    return not nx_contains(nx_add(a.nx, b.nx), a.rep - b.rep)


def ext_subset(a: ExternalNum, b: ExternalNum) -> bool:
    """Whether a (as a set) is contained in b."""
    return (
        nx_compare(a.nx, b.nx) is not Ordering.GT
        and nx_contains(b.nx, a.rep - b.rep)
    )


def render_external(alpha: ExternalNum) -> str:
    if alpha.nx.kind is NeutrixKind.ZERO:
        return render_precise(alpha.rep)
    if alpha.rep.is_zero():
        return render_neutrix(alpha.nx)
    return f"{render_precise(alpha.rep)} + {render_neutrix(alpha.nx)}"
