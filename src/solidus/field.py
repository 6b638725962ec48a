"""Exact arithmetic for the precise elements of the solid.

The backbone is ``RhoPoly``: a finite formal sum ``sum c_i * rho^(q_i)`` with
nonzero rational coefficients and rational exponents, where ``rho`` is a fixed
positive infinitely large symbol.  ``PreciseNum`` is the ratio field of these
polynomials.  Order is decided exactly from leading terms: because ``rho``
dominates every constant, the sign of a nonzero polynomial is the sign of the
coefficient of its largest exponent.

Rational exponents (rather than integer ones) matter: the divisibility of the
exponent group is what makes the idempotency laws of the magnitude lattice
(``neutrix``) come out true in this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Union

from .errors import InternalError

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

RationalLike = Union[Fraction, int]


class Ordering(Enum):
    """Result of a three-way exact comparison."""

    LT = -1
    EQ = 0
    GT = 1


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _value_hash(degree: Fraction | float, lead: Fraction) -> int:
    """Hash of a precise value from its leading term, shared by RhoPoly and
    PreciseNum, which compare equal by value; constants hash like numbers."""
    return hash(lead) if degree == 0 or not lead else hash((degree, lead))


@dataclass(frozen=True)
class RhoPoly:
    """Finite formal sum of rational powers of rho.

    ``terms`` holds ``(exponent, coefficient)`` pairs with strictly decreasing
    exponents and no zero coefficients; the zero polynomial is the empty tuple.
    Instances are immutable and hashable, safe to share between threads.
    """

    terms: tuple[tuple[Fraction, Fraction], ...] = ()

    @staticmethod
    def from_terms(pairs: Iterable[tuple[RationalLike, RationalLike]]) -> "RhoPoly":
        """Build a polynomial from (exponent, coefficient) pairs, merging duplicates."""
        return RhoPoly._collect((_as_fraction(e), _as_fraction(c)) for e, c in pairs)

    @staticmethod
    def _collect(pairs: Iterable[tuple[Fraction, Fraction]]) -> "RhoPoly":
        """``from_terms`` for pairs that are already ``Fraction``s, in any order."""
        acc: dict[Fraction, Fraction] = {}
        for e, c in pairs:
            old = acc.get(e)  # Fraction recomputes its hash on every lookup
            acc[e] = c if old is None else old + c
        ordered = sorted(acc.items(), key=itemgetter(0), reverse=True)
        return RhoPoly(tuple((e, c) for e, c in ordered if c))

    @staticmethod
    def constant(c: RationalLike) -> "RhoPoly":
        c = _as_fraction(c)
        return RhoPoly(((Fraction(0), c),)) if c else RhoPoly()

    @staticmethod
    def rho_power(q: RationalLike, coeff: RationalLike = 1) -> "RhoPoly":
        c = _as_fraction(coeff)
        return RhoPoly(((_as_fraction(q), c),)) if c else RhoPoly()

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Fraction | float:
        """Largest exponent; NEG_INFINITY for the zero polynomial."""
        return self.terms[0][0] if self.terms else NEG_INFINITY

    def min_exponent(self) -> Fraction | float:
        return self.terms[-1][0] if self.terms else NEG_INFINITY

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[0][1]

    def sign(self) -> int:
        """Sign of the value: rho is positive infinite, so the leading term decides."""
        c = self.leading_coeff()
        return (c > 0) - (c < 0)

    def coefficient(self, q: RationalLike) -> Fraction:
        q = _as_fraction(q)
        for e, c in self.terms:
            if e == q:
                return c
            if e < q:
                break
        return Fraction(0)

    def shift(self, dq: RationalLike) -> "RhoPoly":
        """Multiply by rho^(dq): add dq to every exponent."""
        dq = _as_fraction(dq)
        if dq == 0:
            return self
        return RhoPoly(tuple((e + dq, c) for e, c in self.terms))

    def scale(self, factor: RationalLike) -> "RhoPoly":
        """Multiply every coefficient by a rational factor."""
        f = _as_fraction(factor)
        if f == 0:
            return RhoPoly()
        if f == 1:
            return self
        return RhoPoly(tuple((e, c * f) for e, c in self.terms))

    def __add__(self, other: "RhoPoly") -> "RhoPoly":
        if not isinstance(other, RhoPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        # both term tuples are sorted by decreasing exponent: merge them in one pass
        out: list[tuple[Fraction, Fraction]] = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, eb = a[i][0], b[j][0]
            if ea > eb:
                out.append(a[i])
                i += 1
            elif ea < eb:
                out.append(b[j])
                j += 1
            else:
                c = a[i][1] + b[j][1]
                if c:
                    out.append((ea, c))
                i += 1
                j += 1
        out += a[i:] or b[j:]
        return RhoPoly(tuple(out))

    def __neg__(self) -> "RhoPoly":
        return RhoPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "RhoPoly") -> "RhoPoly":
        if not isinstance(other, RhoPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RhoPoly") -> "RhoPoly":
        if not isinstance(other, RhoPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return RhoPoly()
        return RhoPoly._collect(
            (e1 + e2, c1 * c2) for e1, c1 in self.terms for e2, c2 in other.terms
        )

    def __eq__(self, other: object) -> bool:
        # numbers compare as constants; PreciseNum answers by reflection
        if isinstance(other, RhoPoly):
            return self.terms == other.terms
        return self == RhoPoly.constant(other) if isinstance(other, (int, Fraction)) else NotImplemented

    def __hash__(self) -> int:
        return _value_hash(self.degree(), self.leading_coeff())

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"RhoPoly({render_poly(self)})"


ZERO_POLY = RhoPoly()
ONE_POLY = RhoPoly.constant(1)
RHO = RhoPoly.rho_power(1)


def _exponent_step(exponents: Iterable[Fraction]) -> Fraction:
    """Generator of the cyclic subgroup of Q spanned by the given exponents.

    Any finitely generated subgroup of the rationals is cyclic; the generator
    is gcd(numerators)/lcm(denominators).  Consecutive quotient exponents in a
    long division differ by a positive multiple of this step, which is what
    guarantees termination.
    """
    num_gcd = 0
    den_lcm = 1
    for q in exponents:
        if q == 0:
            continue
        num_gcd = math.gcd(num_gcd, abs(q.numerator))
        den_lcm = den_lcm * q.denominator // math.gcd(den_lcm, q.denominator)
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, den_lcm)


@dataclass(frozen=True, eq=False)
class PreciseNum:
    """Element of the precise ordered field: a ratio of two RhoPolys.

    Construction normalizes the denominator to be monic of degree zero (shift
    exponents, scale coefficients), which keeps monomial denominators away
    entirely.  Equality is by value, decided through cross-multiplication, so
    full reduction of the fraction is not required for correctness.
    """

    num: RhoPoly = ZERO_POLY
    den: RhoPoly = ONE_POLY

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in precise element")
        if num.is_zero():
            den = ONE_POLY
        elif den != ONE_POLY:
            # Multiply num and den by rho^(-deg den)/lead(den): value unchanged,
            # denominator becomes 1 + lower-order terms (exactly 1 for monomials).
            shift = -den.degree()
            factor = 1 / den.leading_coeff()
            num = num.shift(shift).scale(factor)
            den = den.shift(shift).scale(factor)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def of(value: "PreciseLike") -> "PreciseNum":
        if isinstance(value, PreciseNum):
            return value
        if isinstance(value, RhoPoly):
            return PreciseNum(value)
        if isinstance(value, (int, Fraction)):
            return PreciseNum(RhoPoly.constant(value))
        raise TypeError(f"cannot interpret {type(value).__name__} as a precise element")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == ONE_POLY

    def sign(self) -> int:
        # den is normalized monic, hence positive.
        return self.num.sign()

    def degree(self) -> Fraction | float:
        """The valuation: degree(num) - degree(den); NEG_INFINITY for zero."""
        if self.num.is_zero():
            return NEG_INFINITY
        return self.num.degree() - self.den.degree()

    def __add__(self, other: "PreciseLike") -> "PreciseNum":
        other = PreciseNum.of(other)
        if self.den == other.den:
            return PreciseNum(self.num + other.num, self.den)
        return PreciseNum(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "PreciseNum":
        return PreciseNum(-self.num, self.den)

    def __sub__(self, other: "PreciseLike") -> "PreciseNum":
        return self + (-PreciseNum.of(other))

    def __rsub__(self, other: "PreciseLike") -> "PreciseNum":
        return PreciseNum.of(other) + (-self)

    def __mul__(self, other: "PreciseLike") -> "PreciseNum":
        other = PreciseNum.of(other)
        return PreciseNum(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "PreciseLike") -> "PreciseNum":
        other = PreciseNum.of(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero element")
        return PreciseNum(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "PreciseLike") -> "PreciseNum":
        return PreciseNum.of(other) / self

    def __abs__(self) -> "PreciseNum":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (PreciseNum, RhoPoly, int, Fraction)):
            return NotImplemented
        other = PreciseNum.of(other)
        if self.den == other.den:
            # canonical terms: over one denominator, equal values have equal numerators
            return self.num == other.num
        return (self - other).is_zero()

    def __hash__(self) -> int:
        # den is monic of degree zero, so num's leading term is the value's
        return _value_hash(self.num.degree(), self.num.leading_coeff())

    def __lt__(self, other: "PreciseLike") -> bool:
        return (self - PreciseNum.of(other)).sign() < 0

    def __le__(self, other: "PreciseLike") -> bool:
        return (self - PreciseNum.of(other)).sign() <= 0

    def __gt__(self, other: "PreciseLike") -> bool:
        return (self - PreciseNum.of(other)).sign() > 0

    def __ge__(self, other: "PreciseLike") -> bool:
        return (self - PreciseNum.of(other)).sign() >= 0

    def __str__(self) -> str:
        return render_precise(self)

    def __repr__(self) -> str:
        return f"PreciseNum({render_precise(self)})"


PreciseLike = Union[PreciseNum, RhoPoly, int, Fraction]

PRECISE_ZERO = PreciseNum(ZERO_POLY)


def degree(x: PreciseNum) -> Fraction | float:
    return x.degree()


def compare_precise(a: PreciseLike, b: PreciseLike) -> Ordering:
    """Sign of a - b, computed exactly from leading terms."""
    return Ordering((PreciseNum.of(a) - PreciseNum.of(b)).sign())


def _long_division(
    num: RhoPoly, den: RhoPoly, floor: Fraction, strict: bool
) -> tuple[RhoPoly, RhoPoly]:
    """Long division with descending quotient exponents, stopped at ``floor``.

    Returns ``(quotient, remainder)`` with num = quotient*den + remainder,
    where the quotient holds the expansion terms with exponent > floor
    (``strict``) or >= floor (not ``strict``).  This terminates because all
    exponents live in the cyclic subgroup delta*Z of the rationals spanned by
    the exponents of num, den and the floor, so every division step lowers the
    remainder's degree by at least delta.  The step-count guard failing means
    a bug, not bad input.
    """
    step = _exponent_step([e for e, _ in num.terms] + [e for e, _ in den.terms] + [floor])
    span = num.degree() - den.degree() - floor
    max_steps = int(span / step) + len(num.terms) + len(den.terms) + 8

    out: list[tuple[Fraction, Fraction]] = []
    rem = num
    while not rem.is_zero():
        e = rem.degree() - den.degree()
        if e < floor or (strict and e == floor):
            break
        c = rem.leading_coeff() / den.leading_coeff()
        out.append((e, c))
        rem = rem - den.shift(e).scale(c)
        if len(out) > max_steps:
            raise InternalError("long division exceeded its termination bound")
    return RhoPoly(tuple(out)), rem


def series_expand(x: PreciseLike, cutoff: RationalLike, strict: bool) -> RhoPoly:
    """Finite initial segment of the rho-expansion of ``x`` above a degree cutoff.

    Returns the polynomial ``p`` whose terms are exactly the expansion terms
    with exponent > cutoff (``strict``) or >= cutoff (not ``strict``), so that
    degree(x - p) falls below that threshold.
    """
    x = PreciseNum.of(x)
    cutoff = _as_fraction(cutoff)
    if x.is_zero():
        return ZERO_POLY
    if x.den == ONE_POLY:
        keep = (lambda e: e > cutoff) if strict else (lambda e: e >= cutoff)
        return RhoPoly(tuple((e, c) for e, c in x.num.terms if keep(e)))
    return _long_division(x.num, x.den, cutoff, strict)[0]


def as_polynomial(x: PreciseNum) -> RhoPoly | None:
    """The RhoPoly equal in value to ``x``, or None when ``x`` is not polynomial.

    If x = P for a polynomial P then min-exponent(P) = min-exponent(num) -
    min-exponent(den) (lowest terms multiply without cancellation), which
    bounds how far the long division may descend before giving up.
    """
    if x.den == ONE_POLY:
        return x.num
    if x.num.is_zero():
        return ZERO_POLY
    floor = x.num.min_exponent() - x.den.min_exponent()
    quotient, rem = _long_division(x.num, x.den, floor, strict=False)
    return quotient if rem.is_zero() else None


def _render_exponent(q: Fraction) -> str:
    if q.denominator == 1 and q > 0:
        return f"rho^{q.numerator}" if q != 1 else "rho"
    return f"rho^({q})"


def render_poly(p: RhoPoly) -> str:
    """Canonical text: strictly decreasing exponents, `c*rho^(q)` per term."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for i, (e, c) in enumerate(p.terms):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = _render_exponent(e)
        else:
            body = f"{mag}*{_render_exponent(e)}"
        if i == 0:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def render_precise(x: PreciseNum) -> str:
    if x.den == ONE_POLY:
        return render_poly(x.num)
    return f"({render_poly(x.num)})/({render_poly(x.den)})"
