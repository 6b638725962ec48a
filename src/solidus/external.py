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
expansion, a polynomial, without normalizing it again, and keeps a polynomial
that loses no term as it is.  Operands are external numbers and the
``PreciseNum.of`` types; a neutrix enters as ``pure(nx)``: a bare ``Neutrix``
operand raises ``TypeError``, ``==`` False.

The operators ``+``, ``-``, ``*``, ``/`` and ``abs`` are the arithmetic, as
the paper writes it; ``ext_add``, ``ext_neg`` and ``ext_mul`` are other names
for three of them.  The inverse ``ext_inv``, which has no operator, and the
three-way answer ``ext_compare`` behind ``<`` are functions.  ``*`` takes its
magnitude from one ``nx_product``, ``ext_inv`` and ``unity`` scale by the
degree of ``1/rep^2`` or ``1/rep`` read from rep's leading exponent, and they
and ``+`` canonicalize once through the constructor's helper ``_canonical``,
without its type checks.  A precise number is an external number whose
neutrix is ``NX_ZERO``, and sums and products of precise numbers are precise:
for them ``+`` and ``*`` pair the result with ``NX_ZERO`` itself.
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
    _difference_lead,
    _expand,
    _poly,
    _precise,
    render_precise,
)
from .neutrix import (
    INFINITESIMALS,
    LIMITED,
    Neutrix,
    NX_ZERO,
    _holds_degree,
    nx_add,
    nx_contains,
    nx_product,
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

    def __new__(cls, rep: PreciseLike, nx: Neutrix = NX_ZERO):
        if nx.__class__ is not Neutrix:
            raise TypeError(f"cannot interpret {type(nx).__name__} as a neutrix")
        return _canonical(rep if isinstance(rep, PreciseNum) else PreciseNum.of(rep), nx)

    def __reduce__(self):
        return ExternalNum, (self.rep, self.nx)

    def __add__(self, other: "ExternalLike") -> "ExternalNum":
        if other.__class__ is not ExternalNum:
            other = as_external(other)
        if self.nx._key[0] < 0 and other.nx._key[0] < 0:  # precise + precise: nothing to absorb
            return _external(self.rep + other.rep, NX_ZERO)
        return _canonical(self.rep + other.rep, nx_add(self.nx, other.nx))

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
        a, b = self.rep, other.rep
        if self.nx._key[0] < 0 and other.nx._key[0] < 0:  # precise * precise: nothing to absorb
            return _external(a * b, NX_ZERO)
        return _canonical(a * b, nx_product(a, self.nx, b, other.nx))

    __rmul__ = __mul__

    def __truediv__(self, other: "ExternalLike") -> "ExternalNum":
        return self * ext_inv(as_external(other))

    def __rtruediv__(self, other: "ExternalLike") -> "ExternalNum":
        return as_external(other) * ext_inv(self)

    def __abs__(self) -> "ExternalNum":
        """Representative-sign absolute value; the neutrix is unchanged."""
        return -self if self.rep.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ExternalNum:
            return self.nx._key == other.nx._key and self.rep == other.rep
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


def _canonical(rep: PreciseNum, nx: Neutrix) -> ExternalNum:
    """The canonical form of ``rep + nx``, for a PreciseNum and a Neutrix."""
    rank, n, d, closed = nx._key
    if rank > 0:  # FULL
        rep = PRECISE_ZERO
    elif not rank and (p := _expand(rep, n, d, closed)) is not rep.num:  # truncate at n/d on ints
        rep = _precise(p, ONE_POLY)
    return _external(rep, nx)


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
    return _canonical(1 / b.rep, _over_rep(b.nx, b.rep, 2))


def unity(alpha: ExternalNum) -> ExternalNum:
    """u(alpha) = 1 + nx/rep, the individualized multiplicative neutral element."""
    if not is_zeroless(alpha):
        raise NotZerolessError(f"{alpha} contains 0 and has no unity")
    return _canonical(EXT_ONE.rep, _over_rep(alpha.nx, alpha.rep, 1))


def _over_rep(nx: Neutrix, rep: PreciseNum, power: int) -> Neutrix:
    """``nx`` scaled by ``1/rep^power``: by rho to its degree, ``-power*deg(rep)``."""
    num = rep.num
    return nx_scale(_poly(num.grid, 1, [(-power * num.ks[0][0], 1)]), nx)


def ext_compare(a: ExternalNum, b: ExternalNum) -> Ordering:
    """Decision procedure for the total order on external numbers.

    With delta = rep difference and C the combined neutrix: when C absorbs
    delta the sets overlap and inclusion of neutrices decides; otherwise the
    sets are disjoint and the sign of delta decides.  Both read only delta's
    leading term, the first term where the representatives differ.
    """
    lead = _difference_lead(a.rep, b.rep)
    if lead is None or _holds_degree(nx_add(a.nx, b.nx), lead[0], lead[1]):
        return Ordering.EQ if a.nx == b.nx else Ordering.LT if a.nx < b.nx else Ordering.GT
    return Ordering(lead[2])


def _holds_difference(nx: Neutrix, x: PreciseNum, y: PreciseNum) -> bool:
    """Whether ``nx`` holds ``x - y``, read from the leading term of the difference."""
    lead = _difference_lead(x, y)
    return lead is None or _holds_degree(nx, lead[0], lead[1])


def ext_member(y: PreciseLike, alpha: ExternalNum) -> bool:
    """Whether the precise element y belongs to the set alpha."""
    return _holds_difference(alpha.nx, PreciseNum.of(y), alpha.rep)


def classify(alpha: ExternalNum) -> Classification:
    if alpha.nx == NX_ZERO:
        return Classification.PRECISE
    if nx_contains(alpha.nx, alpha.rep):
        return Classification.PURE_NEUTRIX
    return Classification.ZEROLESS_NONPRECISE


def is_limited(alpha: ExternalNum) -> bool:
    """Bounded by a limited element: nx <= LIMITED and the representative in LIMITED."""
    return alpha.nx <= LIMITED and nx_contains(LIMITED, alpha.rep)


def shadow(alpha: ExternalNum) -> ExternalNum:
    """Blur a limited number by the infinitesimals: rep + (nx + o)."""
    if not is_limited(alpha):
        raise NotLimitedError(f"{alpha} is not limited")
    return ExternalNum(alpha.rep, nx_add(alpha.nx, INFINITESIMALS))


def ext_disjoint(a: ExternalNum, b: ExternalNum) -> bool:
    """Whether the two sets have empty intersection."""
    return not _holds_difference(nx_add(a.nx, b.nx), a.rep, b.rep)


def ext_subset(a: ExternalNum, b: ExternalNum) -> bool:
    """Whether a (as a set) is contained in b."""
    return a.nx <= b.nx and _holds_difference(b.nx, a.rep, b.rep)


def render_external(alpha: ExternalNum) -> str:
    if alpha.nx == NX_ZERO:
        return render_precise(alpha.rep)
    if alpha.rep.is_zero():
        return render_neutrix(alpha.nx)
    return f"{render_precise(alpha.rep)} + {render_neutrix(alpha.nx)}"
