"""Exact arithmetic for the precise elements of the solid.

The backbone is ``RhoPoly``: a finite formal sum ``sum c_i * rho^(q_i)`` with
nonzero rational coefficients and rational exponents, where ``rho`` is a fixed
positive infinitely large symbol.  ``PreciseNum`` is the ratio field of these
polynomials.  Order is decided exactly from leading terms: because ``rho``
dominates every constant, the sign of a nonzero polynomial is the sign of the
coefficient of its largest exponent.  The order of two numbers is read from
the first term where they differ (``_difference_lead``), without building
their difference.

Rational exponents (rather than integer ones) matter: the divisibility of the
exponent group is what makes the idempotency laws of the magnitude lattice
(``neutrix``) come out true in this model.

Term kernel.  The exponents of one sum lie in the cyclic group ``(1/grid)*Z``
and its coefficients share a denominator, so a ``RhoPoly`` is stored as
``(grid, den, ks)``: ``ks`` holds Python-int pairs ``(k, c)`` and the value is
``sum (c/den) * rho^(k/grid)``.  This is the sparse layout of Johnson ("Sparse
polynomial arithmetic", SIGSAM 1974) with the content split off as in von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 6.  Sums and products put
both operands on a common grid and denominator, work on ints, and reduce by
gcd.  ``Fraction`` appears only at the boundary.  The constructors
(``RhoPoly(terms)``, ``constant``, ``rho_power``) and ``series_expand``'s
cutoff accept one, but ``_ratio``, the one exact-rational coercion, reads an
int or a ``Fraction`` as its int pair, so none of them builds a ``Fraction``
from ints.  The ``terms`` property, a reader for tests only, ``degree()``,
``leading_coeff()`` and hashing build them; other readers, rendering
included, use the int fields.  The expansion itself, ``_expand``, takes its
cutoff as an int pair ``(n, d)``, the form in which a neutrix keeps its
threshold, so canonicalizing an external number builds no ``Fraction``.  The
random generator (``generate``) builds its draws and its shrink candidates
from int pairs through ``_poly`` and ``_sum_terms``, so no draw or candidate
builds one either.  A product of two sums is refused before it starts past
``MAX_PRODUCT_PAIRS`` term pairs.

``RhoPoly`` and ``PreciseNum`` are ``__slots__`` classes.  ``PreciseNum(num,
den)`` normalizes the denominator; results already in normal form are built by
the private maker ``_precise``, which only stores the fields, as ``_make``
does for ``RhoPoly``.
"""

from __future__ import annotations

import functools
import sys
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import InternalError, ResourceLimitError

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")

#: Most quotient terms a long division makes; past it the expansion is refused, not run on.
MAX_SERIES_TERMS = 100_000

#: Most term pairs one product of two sums multiplies; past it the product is refused before it starts.
MAX_PRODUCT_PAIRS = 500_000

RationalLike = Union[Fraction, int]


class Ordering(Enum):
    """Result of a three-way exact comparison."""

    LT = -1
    EQ = 0
    GT = 1


def _ratio(x: RationalLike) -> tuple[int, int]:
    """``x`` as a reduced ``(numerator, denominator)`` pair of ints, denominator > 0."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class RhoPoly:
    """Finite formal sum of rational powers of rho.

    Stored as ``(grid, den, ks)``, the value ``sum (c/den) * rho^(k/grid)``, in
    canonical form: ``ks`` is a tuple of int pairs ``(k, c)`` with strictly
    decreasing ``k`` and no zero ``c``; ``den > 0`` and ``gcd(den, all c) = 1``;
    ``grid`` is minimal, ``gcd(grid, all k) = 1``; zero is ``(1, 1, ())``.  So
    equal values have equal fields and equality is structural.

    ``RhoPoly(terms)`` accepts ``(exponent, coefficient)`` pairs of rationals in
    any order, merging duplicates; ``terms`` gives them back as ``Fraction``
    pairs with strictly decreasing exponents.  Instances are immutable (no
    method changes an instance's fields) and hashable, safe to share between
    threads.
    """

    __slots__ = ("grid", "den", "ks")

    def __init__(self, terms: Iterable[tuple[RationalLike, RationalLike]] = ()):
        p = _sum_terms([(*_ratio(e), *_ratio(c)) for e, c in terms])
        self.grid, self.den, self.ks = p.grid, p.den, p.ks

    def __reduce__(self):
        # the fields are canonical; protocols 0 and 1 pickle __slots__ only this way
        return _make, (self.grid, self.den, self.ks)

    @staticmethod
    def constant(c: RationalLike) -> "RhoPoly":
        n, d = _ratio(c)
        return _make(1, d, ((0, n),)) if n else ZERO_POLY

    @staticmethod
    def rho_power(q: RationalLike, coeff: RationalLike = 1) -> "RhoPoly":
        k, grid = _ratio(q)
        n, d = _ratio(coeff)
        return _make(grid, d, ((k, n),)) if n else ZERO_POLY

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """``(exponent, coefficient)`` pairs as ``Fraction``s, exponents strictly decreasing (for tests)."""
        grid, den = self.grid, self.den
        return tuple((Fraction(k, grid), Fraction(c, den)) for k, c in self.ks)

    def is_zero(self) -> bool:
        return not self.ks

    def degree(self) -> Fraction | float:
        """Largest exponent; NEG_INFINITY for the zero polynomial."""
        return Fraction(self.ks[0][0], self.grid) if self.ks else NEG_INFINITY

    def leading_coeff(self) -> Fraction:
        return Fraction(self.ks[0][1], self.den) if self.ks else Fraction(0)

    def sign(self) -> int:
        """Sign of the value: rho is positive infinite, so the leading term decides."""
        if not self.ks:
            return 0
        return 1 if self.ks[0][1] > 0 else -1

    def _times_term(self, k: int, grid: int, n: int, d: int) -> "RhoPoly":
        """Multiply by the nonzero term ``(n/d) * rho^(k/grid)``, ``grid > 0``."""
        if d < 0:
            n, d = -n, -d
        g = self.grid if grid == self.grid else lcm(self.grid, grid)
        m, s = g // self.grid, k * (g // grid)
        return _poly(g, self.den * d, [(e * m + s, c * n) for e, c in self.ks])

    def __add__(self, other: "RhoPoly") -> "RhoPoly":
        if not isinstance(other, RhoPoly):
            return NotImplemented
        if not self.ks:
            return other
        if not other.ks:
            return self
        # common grid and denominator, then one merge of the sorted int pairs
        a, b, g, d = self.ks, other.ks, self.grid, self.den
        if other.grid != g:
            g = lcm(g, other.grid)
            a, b = _regrid(a, g // self.grid), _regrid(b, g // other.grid)
        if other.den != d:
            d = lcm(d, other.den)
            a, b = _rescale(a, d // self.den), _rescale(b, d // other.den)
        out, combined = _merge(a, b)
        # with no two terms combined, the content and the grid are already reduced
        return _poly(g, d, out) if combined else _make(g, d, tuple(out))

    def __neg__(self) -> "RhoPoly":
        return _make(self.grid, self.den, tuple([(k, -c) for k, c in self.ks]))

    def __sub__(self, other: "RhoPoly") -> "RhoPoly":
        if not isinstance(other, RhoPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RhoPoly") -> "RhoPoly":
        if not isinstance(other, RhoPoly):
            return NotImplemented
        a, b = self.ks, other.ks
        if not a or not b:
            return ZERO_POLY
        if len(b) == 1:
            return self._times_term(b[0][0], other.grid, b[0][1], other.den)
        if len(a) == 1:
            return other._times_term(a[0][0], self.grid, a[0][1], self.den)
        if len(a) * len(b) > MAX_PRODUCT_PAIRS:
            raise ResourceLimitError(f"product of more than {MAX_PRODUCT_PAIRS} term pairs")
        g = self.grid
        if other.grid != g:
            g = lcm(g, other.grid)
            a, b = _regrid(a, g // self.grid), _regrid(b, g // other.grid)
        acc: dict[int, int] = {}
        for ka, ca in a:
            for kb, cb in b:
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb
        return _poly(g, self.den * other.den, sorted([kc for kc in acc.items() if kc[1]], reverse=True))

    def __eq__(self, other: object) -> bool:
        # numbers compare as constants; PreciseNum answers by reflection
        if isinstance(other, RhoPoly):
            return self.ks == other.ks and self.den == other.den and self.grid == other.grid
        if isinstance(other, (int, Fraction)):
            n, d = other.numerator, other.denominator
            return self.ks == (((0, n),) if n else ()) and self.den == d
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash like numbers: an int hashes like the equal Fraction
        if not self.ks:
            return 0
        k, c = self.ks[0]
        lead = c if self.den == 1 else Fraction(c, self.den)
        if k == 0:
            return hash(lead)
        return hash((k if self.grid == 1 else Fraction(k, self.grid), lead))

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"RhoPoly({render_poly(self)})"


def _make(grid: int, den: int, ks: tuple[tuple[int, int], ...]) -> RhoPoly:
    """A RhoPoly from fields already in canonical form."""
    p = object.__new__(RhoPoly)
    p.grid, p.den, p.ks = grid, den, ks
    return p


def _poly(grid: int, den: int, ks: list[tuple[int, int]]) -> RhoPoly:
    """The canonical RhoPoly of ``sum (c/den) * rho^(k/grid)``, for ``ks`` with
    strictly decreasing ``k`` and no zero ``c`` and ``den > 0``: divides the
    content out of ``den`` and the coefficients, and the grid out of the
    exponents."""
    if not ks:
        return ZERO_POLY
    if den != 1:
        h = gcd(den, *[c for _, c in ks])
        if h != 1:
            den //= h
            ks = [(k, c // h) for k, c in ks]
    if grid != 1:
        h = gcd(grid, *[k for k, _ in ks])
        if h != 1:
            grid //= h
            ks = [(k // h, c) for k, c in ks]
    return _make(grid, den, tuple(ks))


def _sum_terms(terms: list[tuple[int, int, int, int]]) -> RhoPoly:
    """The canonical sum of the terms ``(n/d) * rho^(k/g)``, given as ``(k, g, n, d)`` with
    ``g, d > 0`` in any order: a common grid and denominator, one dict and one sort."""
    grid, den = lcm(1, *[g for _, g, _, _ in terms]), lcm(1, *[d for _, _, _, d in terms])
    acc: dict[int, int] = {}
    for k, g, n, d in terms:
        k *= grid // g
        acc[k] = acc.get(k, 0) + n * (den // d)
    return _poly(grid, den, sorted([kc for kc in acc.items() if kc[1]], reverse=True))


def _regrid(ks, m: int):
    return ks if m == 1 else [(k * m, c) for k, c in ks]


def _rescale(ks, m: int):
    return ks if m == 1 else [(k, c * m) for k, c in ks]


def _merge(a, b) -> tuple[list[tuple[int, int]], bool]:
    """The sum of two pair sequences sorted by decreasing ``k``, in one pass, and
    whether any two terms were combined."""
    out: list[tuple[int, int]] = []
    i = j = 0
    combined = False
    while i < len(a) and j < len(b):
        ka, kb = a[i][0], b[j][0]
        if ka > kb:
            out.append(a[i])
            i += 1
        elif ka < kb:
            out.append(b[j])
            j += 1
        else:
            c = a[i][1] + b[j][1]
            if c:
                out.append((ka, c))
            i += 1
            j += 1
            combined = True
    out += a[i:] or b[j:]
    return out, combined


ZERO_POLY = _make(1, 1, ())
ONE_POLY = RhoPoly.constant(1)
RHO = RhoPoly.rho_power(1)


class _Immutable:
    """Base of the immutable value classes: assigning or deleting an attribute
    raises ``AttributeError``, so a subclass sets its slots through their
    descriptors and is copied and pickled through ``__reduce__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


@functools.total_ordering
class PreciseNum(_Immutable):
    """Element of the precise ordered field: a ratio of two RhoPolys.

    ``PreciseNum(num, den)`` normalizes the denominator to ``1 + lower terms``
    (shift exponents, scale coefficients), and to 1 for zero, so the value is a
    polynomial exactly when the denominator has one term.  The ratio is not
    reduced: ``==`` compares numerators over one denominator and otherwise
    tests the difference for zero.  ``of``, negation, sums, differences and
    products are already in normal form (a product of normal denominators is
    normal) and skip the normalization through the maker ``_precise``.
    Immutable and hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: RhoPoly = ZERO_POLY, den: RhoPoly = ONE_POLY):
        if not isinstance(num, RhoPoly) or not isinstance(den, RhoPoly):
            bad = den if isinstance(num, RhoPoly) else num
            raise TypeError(f"a precise element is a ratio of RhoPolys, got {type(bad).__name__}")
        if not den.ks:
            raise ZeroDivisionError("zero denominator in precise element")
        if not num.ks:
            den = ONE_POLY
        elif den.ks[0][0] or den.ks[0][1] != den.den:  # the leading term is not 1
            # Multiply num and den by rho^(-deg den)/lead(den): value unchanged,
            # denominator becomes 1 + lower-order terms (exactly 1 for monomials).
            k, c = den.ks[0]
            num = num._times_term(-k, den.grid, den.den, c)
            den = den._times_term(-k, den.grid, den.den, c)
        _set_num(self, num)
        _set_den(self, den)

    def __reduce__(self):
        # the fields are in normal form, which the constructor leaves unchanged
        return PreciseNum, (self.num, self.den)

    @staticmethod
    def of(value: "PreciseLike") -> "PreciseNum":
        if isinstance(value, PreciseNum):
            return value
        if isinstance(value, RhoPoly):
            return _precise(value, ONE_POLY)
        if isinstance(value, (int, Fraction)):
            return _precise(RhoPoly.constant(value), ONE_POLY)
        raise TypeError(f"cannot interpret {type(value).__name__} as a precise element")

    def is_zero(self) -> bool:
        return not self.num.ks

    def is_polynomial(self) -> bool:
        # a normal denominator is 1 plus lower terms: it is 1 when it has one term
        return len(self.den.ks) == 1

    def sign(self) -> int:
        # den is normalized monic, hence positive.
        return self.num.sign()

    def degree(self) -> Fraction | float:
        """The valuation; den has degree zero, and zero's numerator gives NEG_INFINITY."""
        return self.num.degree()

    def __add__(self, other: "PreciseLike") -> "PreciseNum":
        if not isinstance(other, PreciseNum) and (other := _operand(other)) is NotImplemented:
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            num, den = self.num + other.num, a
        else:
            # a product of two denominators 1 + lower terms is one as well
            num, den = self.num * b + other.num * a, a * b
        return _precise(num, den) if num.ks else PRECISE_ZERO

    __radd__ = __add__

    def __neg__(self) -> "PreciseNum":
        return _precise(-self.num, self.den)

    def __sub__(self, other: "PreciseLike") -> "PreciseNum":
        if not isinstance(other, PreciseNum) and (other := _operand(other)) is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "PreciseLike") -> "PreciseNum":
        other = _operand(other)
        return NotImplemented if other is NotImplemented else other - self

    def __mul__(self, other: "PreciseLike") -> "PreciseNum":
        if not isinstance(other, PreciseNum) and (other := _operand(other)) is NotImplemented:
            return NotImplemented
        num = self.num * other.num
        if not num.ks:
            return PRECISE_ZERO
        a, b = self.den, other.den
        return _precise(num, b if len(a.ks) == 1 else a if len(b.ks) == 1 else a * b)

    __rmul__ = __mul__

    def __truediv__(self, other: "PreciseLike") -> "PreciseNum":
        if not isinstance(other, PreciseNum) and (other := _operand(other)) is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero element")
        return PreciseNum(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "PreciseLike") -> "PreciseNum":
        other = _operand(other)
        return NotImplemented if other is NotImplemented else other / self

    def __abs__(self) -> "PreciseNum":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreciseNum) and (other := _operand(other)) is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            # canonical terms: over one denominator, equal values have equal numerators
            return self.num == other.num
        return _difference_lead(self, other) is None

    def __hash__(self) -> int:
        # den is monic of degree zero, so num's leading term is the value's
        return hash(self.num)

    def __lt__(self, other: "PreciseLike") -> bool:
        # total_ordering derives <=, > and >= from this and __eq__, passing NotImplemented on
        if not isinstance(other, PreciseNum) and (other := _operand(other)) is NotImplemented:
            return NotImplemented
        lead = _difference_lead(self, other)
        return lead is not None and lead[2] < 0

    def __str__(self) -> str:
        return render_precise(self)

    def __repr__(self) -> str:
        return f"PreciseNum({render_precise(self)})"


_set_num = PreciseNum.num.__set__
_set_den = PreciseNum.den.__set__


def _precise(num: RhoPoly, den: RhoPoly) -> PreciseNum:
    """A PreciseNum from fields already in normal form, without normalizing:
    ``den`` is 1 plus lower terms, and exactly 1 when ``num`` is zero."""
    x = object.__new__(PreciseNum)
    _set_num(x, num)
    _set_den(x, den)
    return x


#: The operand types ``PreciseNum.of`` accepts.
_PRECISE_TYPES = (PreciseNum, RhoPoly, int, Fraction)
PreciseLike = Union[_PRECISE_TYPES]


def _operand(value: object) -> PreciseNum:
    """``PreciseNum.of(value)``, or NotImplemented for a type it rejects, so that
    Python tries the other operand's reflected method (an ExternalNum's, say)."""
    return PreciseNum.of(value) if isinstance(value, _PRECISE_TYPES) else NotImplemented


PRECISE_ZERO = PreciseNum(ZERO_POLY)


def _difference_lead(x: PreciseNum, y: PreciseNum) -> tuple[int, int, int] | None:
    """The leading term of ``x - y`` as ints ``(k, grid, sign)``, of degree ``k/grid``,
    or None when ``x == y``: the first term where the numerators differ, exponents
    compared as ``ka*gb`` against ``kb*ga`` and coefficients as ``ca*db - cb*da``.
    A denominator is 1 plus lower terms, so that term leads the difference over
    one denominator, and over two when it is the first; only a tie there builds it.
    """
    a, b, ga, gb, da, db = x.num.ks, y.num.ks, x.num.grid, y.num.grid, x.num.den, y.num.den
    for (ka, ca), (kb, cb) in zip(a, b):
        e = ka * gb - kb * ga
        if e:
            return (ka, ga, 1 if ca > 0 else -1) if e > 0 else (kb, gb, -1 if cb > 0 else 1)
        c = ca * db - cb * da
        if c:
            return ka, ga, 1 if c > 0 else -1
        if x.den != y.den:
            # the leading terms of two ratios tie: the rest of their expansions decides
            num = (x - y).num
            return (num.ks[0][0], num.grid, num.sign()) if num.ks else None
    if len(a) == len(b):
        return None
    # one numerator ran out: the other's next term leads
    (k, c), g, s = (a[len(b)], ga, 1) if len(a) > len(b) else (b[len(a)], gb, -1)
    return k, g, s if c > 0 else -s


def compare_precise(a: PreciseLike, b: PreciseLike) -> Ordering:
    """Sign of a - b, read from the leading term of the difference."""
    lead = _difference_lead(PreciseNum.of(a), PreciseNum.of(b))
    return Ordering.EQ if lead is None else Ordering(lead[2])


def _long_division(num: RhoPoly, den: RhoPoly, fn: int, fd: int, strict: bool) -> tuple[RhoPoly, RhoPoly]:
    """Long division with descending quotient exponents, stopped at the floor
    ``fn/fd`` (ints, ``fd > 0``).

    Returns ``(quotient, remainder)`` with num = quotient*den + remainder,
    where the quotient holds the expansion terms with exponent > floor
    (``strict``) or >= floor (not ``strict``).  ``den`` must be a ``PreciseNum``
    denominator, monic of degree zero, so each quotient term is the
    remainder's leading term.  num, den and the floor are put on one grid
    ``(1/g)*Z`` and the remainder is kept over one int denominator, reduced by
    gcd after each step.  This terminates because every division step lowers
    the remainder's exponent, an integer on that grid, by at least 1.  The
    step-count guard failing means a bug, not bad input; a quotient of more
    than ``MAX_SERIES_TERMS`` terms raises ResourceLimitError.
    """
    g = lcm(num.grid, den.grid, fd)
    stop = fn * (g // fd)
    rem, r = _regrid(num.ks, g // num.grid), num.den
    # den = (dd + tail)/dd with dd*rho^0 its leading term; the tail is negated for subtraction
    dd = den.den
    tail = [(k, -c) for k, c in _regrid(den.ks[1:], g // den.grid)]
    max_steps = (rem[0][0] - stop if rem else 0) + len(num.ks) + len(den.ks) + 8

    out: list[tuple[int, int, int]] = []  # quotient terms (k, c, d): (c/d)*rho^(k/g)
    while rem:
        k, c = rem[0]
        if k < stop or (strict and k == stop):
            break
        out.append((k, c, r))
        # rem/r - (c/r)*rho^(k/g)*den = (dd*rem - c*rho^(k/g)*(dd + tail))/(r*dd): the leads cancel
        rem = _merge(_rescale(rem[1:], dd), [(k + e, c * ce) for e, ce in tail])[0]
        r *= dd
        if r != 1 and rem:
            h = gcd(r, *[c for _, c in rem])
            if h != 1:
                r //= h
                rem = [(e, c // h) for e, c in rem]
        if len(out) > max_steps:
            raise InternalError("long division exceeded its termination bound")
        if len(out) > MAX_SERIES_TERMS:
            raise ResourceLimitError(f"series expansion longer than {MAX_SERIES_TERMS} terms")
    q_den = lcm(1, *[d for _, _, d in out])
    quotient = _poly(g, q_den, [(k, c * (q_den // d)) for k, c, d in out])
    return quotient, _poly(g, r, rem)


def series_expand(x: PreciseLike, cutoff: RationalLike, strict: bool) -> RhoPoly:
    """Finite initial segment of the rho-expansion of ``x`` above a degree cutoff.

    Returns the polynomial ``p`` whose terms are exactly the expansion terms
    with exponent > cutoff (``strict``) or >= cutoff (not ``strict``), so that
    degree(x - p) falls below that threshold.
    """
    return _expand(PreciseNum.of(x), *_ratio(cutoff), strict)


def _expand(x: PreciseNum, n: int, d: int, strict: bool) -> RhoPoly:
    """``series_expand`` at the cutoff ``n/d``, given as ints with ``d > 0``."""
    if x.is_polynomial():
        # k/grid > n/d  <=>  k*d > n*grid, all on ints; the exponents decrease, so the
        # terms below the cut end the list, and a polynomial that keeps its last keeps all
        p = x.num
        ks, bound, i = p.ks, n * p.grid, len(p.ks)
        while i and (ks[i - 1][0] * d <= bound if strict else ks[i - 1][0] * d < bound):
            i -= 1
        return p if i == len(ks) else _poly(p.grid, p.den, ks[:i])
    return _long_division(x.num, x.den, n, d, strict)[0]


def as_polynomial(x: PreciseNum) -> RhoPoly | None:
    """The RhoPoly equal in value to ``x``, or None when ``x`` is not polynomial.

    If x = P for a polynomial P then min-exponent(P) = min-exponent(num) -
    min-exponent(den) (lowest terms multiply without cancellation), which
    bounds how far the long division may descend before giving up.
    """
    if x.is_polynomial():
        return x.num
    num, den = x.num, x.den
    g = lcm(num.grid, den.grid)
    floor = num.ks[-1][0] * (g // num.grid) - den.ks[-1][0] * (g // den.grid)  # last k: lowest, on grid g
    quotient, rem = _long_division(num, den, floor, g, strict=False)
    return quotient if rem.is_zero() else None


def digit_limit() -> int:
    """The int/str conversion limit in digits, 0 for none (``sys.get_int_max_str_digits``, from 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _ratio_text(n: int, d: int) -> str:
    """The reduced ``n/d`` (``d > 0``) as ``str(Fraction(n, d))`` prints it, or
    ResourceLimitError where str would exceed the digit limit."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # str refuses an int of more than digit_limit() digits
        raise ResourceLimitError(f"a number of more than {digit_limit()} digits is too long to print") from None


def _render_exponent(k: int, grid: int) -> str:
    """``rho^(k/grid)`` for the reduced ``k/grid``, ``grid > 0``."""
    text = _ratio_text(k, grid)
    if grid == 1 and k > 0:
        return f"rho^{text}" if k != 1 else "rho"
    return f"rho^({text})"


def render_poly(p: RhoPoly) -> str:
    """Canonical text: strictly decreasing exponents, `c*rho^(q)` per term,
    printed from the stored int pairs with one gcd per number."""
    if not p.ks:
        return "0"
    grid, den = p.grid, p.den
    pieces: list[str] = []
    for k, c in p.ks:
        g = gcd(c, den)
        n, d = abs(c) // g, den // g
        if not k:
            body = _ratio_text(n, d)
        else:
            h = gcd(k, grid)
            body = _render_exponent(k // h, grid // h)
            if n != d:  # a reduced n/d is 1 only as 1/1
                body = f"{_ratio_text(n, d)}*{body}"
        pieces.append(f" - {body}" if c < 0 else f" + {body}")
    first = pieces[0][3:]
    pieces[0] = f"-{first}" if p.ks[0][1] < 0 else first
    return "".join(pieces)


def render_precise(x: PreciseNum) -> str:
    if x.is_polynomial():
        return render_poly(x.num)
    return f"({render_poly(x.num)})/({render_poly(x.den)})"
