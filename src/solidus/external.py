"""External numbers: canonical pairs (precise representative, neutrix).

An external number denotes the set rep + N = {rep + n : n in N}.  The
canonical form keeps, of the representative's expansion, exactly the terms the
neutrix cannot absorb:

    a closed cut at q contains rho^q, so it absorbs every term of exponent <= q;
    an open cut at q does not contain rho^q, so terms of exponent >= q survive.

With NX_ZERO the representative is kept verbatim (any ratio); with FULL the
representative collapses to 0.  Two canonical forms denote the same set
exactly when their neutrices are equal and their representatives are equal.

``ExternalNum(rep, nx)`` is an immutable ``__slots__`` pair whose constructor
builds the canonical form (``canonicalize`` is the same constructor), so
equality is structural and agrees with the order; it stores a truncated
expansion, a polynomial, without normalizing it again.  Operands are external
numbers and the ``PreciseNum.of`` types; a neutrix enters as ``pure(nx)``: a
bare ``Neutrix`` operand raises ``TypeError``, ``==`` False.

The operators ``+``, ``-``, ``*``, ``/`` and ``abs`` are the arithmetic, as
the paper writes it; ``ext_add``, ``ext_neg`` and ``ext_mul`` are other names
for three of them.  The inverse ``ext_inv``, which has no operator, and the
three-way answer ``ext_compare`` behind ``<`` are functions.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Union

from .errors import NotLimitedError, NotZerolessError
from .field import (
    ONE_POLY,
    Ordering,
    PreciseLike,
    PreciseNum,
    PRECISE_ZERO,
    _Immutable,
    _PRECISE_TYPES,
    _precise,
    render_precise,
    series_expand,
)
from .neutrix import (
    FULL,
    INFINITESIMALS,
    LIMITED,
    Neutrix,
    NX_ZERO,
    nx_add,
    nx_contains,
    nx_mul,
    nx_scale,
    render_neutrix,
)


class Classification(Enum):
    PRECISE = "Precise"
    PURE_NEUTRIX = "PureNeutrix"
    ZEROLESS_NONPRECISE = "ZerolessNonPrecise"


@functools.total_ordering
class ExternalNum(_Immutable):
    """The canonical form of ``rep + nx``, immutable and hashable; it denotes
    the same set as ``rep + nx``."""

    __slots__ = ("rep", "nx")

    def __init__(self, rep: PreciseLike, nx: Neutrix = NX_ZERO):
        if nx.__class__ is not Neutrix:
            raise TypeError(f"cannot interpret {type(nx).__name__} as a neutrix")
        if not isinstance(rep, PreciseNum):
            rep = PreciseNum.of(rep)
        if nx == FULL:
            rep = PRECISE_ZERO
        elif nx != NX_ZERO:
            rep = _precise(series_expand(rep, nx.q, strict=nx.closed), ONE_POLY)
        _set_rep(self, rep)
        _set_nx(self, nx)

    def __reduce__(self):
        return ExternalNum, (self.rep, self.nx)

    def __add__(self, other: "ExternalLike") -> "ExternalNum":
        if other.__class__ is not ExternalNum:
            other = as_external(other)
        return ExternalNum(self.rep + other.rep, nx_add(self.nx, other.nx))

    __radd__ = __add__

    def __neg__(self) -> "ExternalNum":
        # Negating flips the representative and fixes the (symmetric) neutrix.
        return _external(-self.rep, self.nx)

    def __sub__(self, other: "ExternalLike") -> "ExternalNum":
        return self + -as_external(other)

    def __rsub__(self, other: "ExternalLike") -> "ExternalNum":
        return as_external(other) + -self

    def __mul__(self, other: "ExternalLike") -> "ExternalNum":
        """Minkowski product: (a+A)(b+B) = ab + aB + bA + AB."""
        if other.__class__ is not ExternalNum:
            other = as_external(other)
        nx = nx_add(
            nx_add(nx_scale(self.rep, other.nx), nx_scale(other.rep, self.nx)),
            nx_mul(self.nx, other.nx),
        )
        return ExternalNum(self.rep * other.rep, nx)

    __rmul__ = __mul__

    def __truediv__(self, other: "ExternalLike") -> "ExternalNum":
        return self * ext_inv(as_external(other))

    def __rtruediv__(self, other: "ExternalLike") -> "ExternalNum":
        return as_external(other) * ext_inv(self)

    def __abs__(self) -> "ExternalNum":
        """Representative-sign absolute value; the neutrix is unchanged."""
        return -self if self.rep.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExternalNum):
            return self.nx == other.nx and self.rep == other.rep
        # a number equals its precise value; a Neutrix never equals its pure(...): 0 != NX_ZERO
        return self == ExternalNum(other) if isinstance(other, _PRECISE_TYPES) else NotImplemented

    def __hash__(self) -> int:
        # precise values hash like the numbers they equal
        return hash(self.rep) if self.nx == NX_ZERO else hash((self.rep, self.nx))

    def __lt__(self, other: "ExternalLike") -> bool:
        # total_ordering derives <=, > and >= from this and __eq__
        return ext_compare(self, as_external(other)) is Ordering.LT

    def __str__(self) -> str:
        return render_external(self)

    def __repr__(self) -> str:
        return f"ExternalNum({render_external(self)})"


_set_rep = ExternalNum.rep.__set__
_set_nx = ExternalNum.nx.__set__

ExternalLike = Union[ExternalNum, PreciseLike]

#: The constructor and three operators under the names ``bench/tracing.py`` imports.
canonicalize = ExternalNum
ext_add = ExternalNum.__add__
ext_neg = ExternalNum.__neg__
ext_mul = ExternalNum.__mul__


def _external(rep: PreciseNum, nx: Neutrix) -> ExternalNum:
    """An ExternalNum from a pair already in canonical form, without canonicalizing."""
    x = object.__new__(ExternalNum)
    _set_rep(x, rep)
    _set_nx(x, nx)
    return x


def as_external(value: ExternalLike) -> ExternalNum:
    return value if isinstance(value, ExternalNum) else ExternalNum(value)


EXT_ZERO = ExternalNum(0)
EXT_ONE = ExternalNum(1)


def pure(nx: Neutrix) -> ExternalNum:
    """The magnitude nx as an external number (representative 0)."""
    return ExternalNum(0, nx)


def magnitude(alpha: ExternalNum) -> ExternalNum:
    """e(alpha): the neutrix part as an external number."""
    return pure(alpha.nx)


def is_zeroless(alpha: ExternalNum) -> bool:
    """True when 0 is not a member, i.e. the neutrix does not reach the representative."""
    return not nx_contains(alpha.nx, alpha.rep)


def ext_inv(b: ExternalNum) -> ExternalNum:
    """Inverse of a zeroless number: 1/rep + nx/rep^2 in canonical form."""
    if not is_zeroless(b):
        raise NotZerolessError(f"{b} contains 0 and has no inverse")
    inv_rep = 1 / b.rep
    return ExternalNum(inv_rep, nx_scale(inv_rep * inv_rep, b.nx))


def unity(alpha: ExternalNum) -> ExternalNum:
    """u(alpha) = 1 + nx/rep, the individualized multiplicative neutral element."""
    if not is_zeroless(alpha):
        raise NotZerolessError(f"{alpha} contains 0 and has no unity")
    return ExternalNum(1, nx_scale(1 / alpha.rep, alpha.nx))


def ext_compare(a: ExternalNum, b: ExternalNum) -> Ordering:
    """Decision procedure for the total order on external numbers.

    With delta = rep difference and C the combined neutrix: when C absorbs
    delta the sets overlap and inclusion of neutrices decides; otherwise the
    sets are disjoint and the sign of delta decides.
    """
    delta = a.rep - b.rep
    combined = nx_add(a.nx, b.nx)
    if nx_contains(combined, delta):
        return Ordering.EQ if a.nx == b.nx else Ordering.LT if a.nx < b.nx else Ordering.GT
    return Ordering(delta.sign())


def ext_member(y: PreciseLike, alpha: ExternalNum) -> bool:
    """Whether the precise element y belongs to the set alpha."""
    return nx_contains(alpha.nx, PreciseNum.of(y) - alpha.rep)


def classify(alpha: ExternalNum) -> Classification:
    if alpha.nx == NX_ZERO:
        return Classification.PRECISE
    if nx_contains(alpha.nx, alpha.rep):
        return Classification.PURE_NEUTRIX
    return Classification.ZEROLESS_NONPRECISE


def is_limited(alpha: ExternalNum) -> bool:
    """Bounded by a limited element: representative degree <= 0 and nx <= LIMITED."""
    return alpha.nx <= LIMITED and alpha.rep.degree() <= 0


def shadow(alpha: ExternalNum) -> ExternalNum:
    """Blur a limited number by the infinitesimals: rep + (nx + o)."""
    if not is_limited(alpha):
        raise NotLimitedError(f"{alpha} is not limited")
    return ExternalNum(alpha.rep, nx_add(alpha.nx, INFINITESIMALS))


def ext_disjoint(a: ExternalNum, b: ExternalNum) -> bool:
    """Whether the two sets have empty intersection."""
    return not nx_contains(nx_add(a.nx, b.nx), a.rep - b.rep)


def ext_subset(a: ExternalNum, b: ExternalNum) -> bool:
    """Whether a (as a set) is contained in b."""
    return a.nx <= b.nx and nx_contains(b.nx, a.rep - b.rep)


def render_external(alpha: ExternalNum) -> str:
    if alpha.nx == NX_ZERO:
        return render_precise(alpha.rep)
    if alpha.rep.is_zero():
        return render_neutrix(alpha.nx)
    return f"{render_precise(alpha.rep)} + {render_neutrix(alpha.nx)}"
