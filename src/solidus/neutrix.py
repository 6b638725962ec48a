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

``Neutrix`` is an immutable ``__slots__`` class whose one stored form is its
int key: a finite threshold is the reduced int pair ``(n, d)``, and ``q``, the
threshold as a ``Fraction``, is built from the key on each read.  Comparisons
and rendering read the key.  Every magnitude product is ``nx_product``, the
magnitude of ``(a + A)(b + B)``, with ``nx_mul`` and ``nx_scale`` its special
cases: it adds the int pairs, a scalar's its leading exponent ``k/grid``, and
builds its one result with the private maker ``_cut(n, d, closed)`` and one
gcd.  Membership compares ``k*d`` with ``n*grid`` in ``_holds_degree``, which
the external order asks about the first term where two numbers differ,
building no difference.  None of them builds a ``Fraction`` or compares one
with a float infinity; neither do ``Neutrix(q, closed)``, ``open_cut`` and
``closed_cut`` given an int.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import NotAboveUnityError, NotIdempotentError
from .field import (
    NEG_INFINITY,
    PreciseLike,
    PRECISE_ZERO,
    PreciseNum,
    RationalLike,
    RhoPoly,
    _Immutable,
    _ratio,
    _render_exponent,
)


@functools.total_ordering
class Neutrix(_Immutable):
    """A magnitude: the degree cut below ``q``, including ``q`` when ``closed``.

    ``q`` is an exact rational, or -inf for ``NX_ZERO`` and +inf for ``FULL``.
    The order is set inclusion, the order of ``(q, closed)``.  The stored form
    is an int key, ``(rank, n, d, closed)`` with rank -1, 0 or +1 for -inf, a
    finite ``q = n/d`` (reduced, ``d > 0``) or +inf: ``==`` compares keys,
    ``<`` compares ranks, then ``n/d`` by cross-multiplication, then
    ``closed``.  ``q`` is built from the key on each read.  Immutable and
    hashable, with the hash of ``(q, closed)``.
    """

    __slots__ = ("closed", "_key")

    def __init__(self, q: RationalLike | float, closed: bool):
        if isinstance(q, float) and math.isinf(q):
            if closed != (q < 0):
                raise ValueError("the cuts at infinity are NX_ZERO (-inf, closed) and FULL (+inf, open)")
            rank, n, d = (-1 if q < 0 else 1), 0, 1
        else:
            rank, (n, d) = 0, _ratio(q)
        _set_closed(self, closed)
        _set_key(self, (rank, n, d, closed))

    @property
    def q(self) -> Fraction | float:
        rank, n, d, _ = self._key
        return Fraction(n, d) if rank == 0 else NEG_INFINITY if rank < 0 else math.inf

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


_set_closed = Neutrix.closed.__set__
_set_key = Neutrix._key.__set__


def _cut(n: int, d: int, closed: bool) -> Neutrix:
    """The finite cut at ``n/d`` (ints, ``d > 0``), reduced by one gcd."""
    g = math.gcd(n, d)
    a = object.__new__(Neutrix)
    _set_closed(a, closed)
    _set_key(a, (0, n // g, d // g, closed))
    return a


def open_cut(q: RationalLike) -> Neutrix:
    return Neutrix(q, False)


def closed_cut(q: RationalLike) -> Neutrix:
    return Neutrix(q, True)


NX_ZERO = Neutrix(NEG_INFINITY, True)
#: The maximal magnitude below 1: all elements of negative degree.
INFINITESIMALS = open_cut(0)
#: The minimal magnitude above 1: all elements of degree at most zero.
LIMITED = closed_cut(0)
FULL = Neutrix(math.inf, False)

IDEMPOTENTS = (NX_ZERO, INFINITESIMALS, LIMITED, FULL)
_ZERO_KEY = NX_ZERO._key


def nx_add(a: Neutrix, b: Neutrix) -> Neutrix:
    """Sum of magnitudes: the larger of the two."""
    return b if a < b else a


def nx_product(a: PreciseNum, A: Neutrix, b: PreciseNum, B: Neutrix) -> Neutrix:
    """The magnitude of ``(a + A)(b + B) = ab + aB + bA + AB``: the largest of ``aB``, ``bA`` and ``AB``.

    Decided on the int keys: a scalar acts as the closed cut at its degree,
    its numerator's leading exponent ``k/grid``, and zero as ``NX_ZERO``.  In
    each product zero annihilates, ``FULL``'s +inf absorbs every finite
    threshold, the thresholds add, and the cut is closed only if both are
    (below rho^q times at or below rho^r stays below rho^(q+r)).
    """
    x, y = a.num, b.num
    sa = (0, x.ks[0][0], x.grid, True) if x.ks else _ZERO_KEY
    sb = (0, y.ks[0][0], y.grid, True) if y.ks else _ZERO_KEY
    # two zero scalars (nx_mul) leave only AB: aB and bA are not tried
    products = ((A._key, B._key),) if sa is _ZERO_KEY and sb is _ZERO_KEY else ((sa, B._key), (A._key, sb), (A._key, B._key))
    rank, n, d, closed = _ZERO_KEY  # the largest product so far
    for (r, n1, d1, c1), (r2, n2, d2, c2) in products:
        if r < 0 or r2 < 0:
            continue
        if r or r2:
            return FULL
        m, e, c = n1 * d2 + n2 * d1, d1 * d2, c1 and c2
        if rank < 0 or (u := m * d) > (v := n * e) or (u == v and c > closed):
            rank, n, d, closed = 0, m, e, c
    return NX_ZERO if rank < 0 else _cut(n, d, closed)


def nx_mul(a: Neutrix, b: Neutrix) -> Neutrix:
    """Product of magnitudes, ``nx_product`` with two zero scalars."""
    return nx_product(PRECISE_ZERO, a, PRECISE_ZERO, b)


def nx_scale(p: PreciseLike, a: Neutrix) -> Neutrix:
    """Multiply a magnitude by a precise element: ``pA = {px : x in A}``.

    Scaling by zero gives ``NX_ZERO``, for every ``A``, ``FULL`` included.
    Otherwise only the degree of ``p`` matters: coefficients are absorbed by
    the group.  This is ``nx_product`` of ``p + NX_ZERO`` and ``0 + a``.
    """
    return nx_product(PreciseNum.of(p), NX_ZERO, PRECISE_ZERO, a)


def nx_contains(a: Neutrix, p: PreciseLike) -> bool:
    """Membership of a precise element, decided by the degree valuation."""
    num = PreciseNum.of(p).num
    # every cut holds zero; the degree of p is its numerator's, k/grid
    return _holds_degree(a, num.ks[0][0], num.grid) if num.ks else True


def _holds_degree(a: Neutrix, k: int, grid: int) -> bool:
    """Whether ``a`` holds the nonzero elements of degree ``k/grid`` (ints, ``grid > 0``)."""
    rank, n, d, closed = a._key
    if rank:  # FULL holds every element, NX_ZERO none but zero
        return rank > 0
    # the degree against the threshold n/d, on ints
    k, bound = k * d, n * grid
    return k <= bound if closed else k < bound


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
    """``0``, ``M``, or the cut's letter after ``rho^(q)*``, printed from the int key."""
    rank, n, d, closed = a._key
    if rank:
        return "0" if rank < 0 else "M"
    letter = "L" if closed else "o"
    return f"{_render_exponent(n, d)}*{letter}" if n else letter
