"""An exact oracle for the precise field that shares no arithmetic with it.

A precise element is a ratio ``num/den`` of finite sums ``sum c * rho^e`` with
rational exponents.  This module reads only the ``terms`` of those sums.  It
maps them onto dense Laurent polynomials in ``t = rho^(1/D)``, where ``D`` is
the lcm of the exponent denominators, so every exponent becomes an integer
index into a coefficient list.  Sums, differences and products are computed
on the lists with its own loops.

Sign is decided by exact evaluation: after clearing denominators a nonzero
polynomial with integer coefficients ``a_i`` and leading coefficient
``a_lead`` has no root at or beyond ``1 + max|a_i / a_lead|`` (Cauchy's
bound), so its value at an integer ``N`` above that bound has the sign it has
at rho, which is infinitely large.  The same evaluation decides equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Laurent:
    """``sum coeffs[i] * t^(low + i)`` with no zero coefficient at either end."""

    def __init__(self, low: int, coeffs: list[Fraction]):
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        self.low = low + lo if lo < hi else 0
        self.coeffs = coeffs[lo:hi]

    @staticmethod
    def of(terms, grid: int) -> "Laurent":
        """The sum of ``(exponent, coefficient)`` pairs, exponents in units of 1/grid."""
        pairs = [(e * grid, c) for e, c in terms]
        assert all(k.denominator == 1 for k, _ in pairs), (terms, grid)
        if not pairs:
            return Laurent(0, [])
        low = int(min(k for k, _ in pairs))
        coeffs = [Fraction(0)] * (int(max(k for k, _ in pairs)) - low + 1)
        for k, c in pairs:
            coeffs[int(k) - low] += c
        return Laurent(low, coeffs)

    def _combine(self, other: "Laurent", sign: int) -> "Laurent":
        """self + sign*other."""
        low = min(self.low, other.low)
        high = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        coeffs = [Fraction(0)] * (high - low)
        for i, c in enumerate(self.coeffs):
            coeffs[self.low - low + i] += c
        for i, c in enumerate(other.coeffs):
            coeffs[other.low - low + i] += sign * c
        return Laurent(low, coeffs)

    def __add__(self, other: "Laurent") -> "Laurent":
        return self._combine(other, 1)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self._combine(other, -1)

    def __mul__(self, other: "Laurent") -> "Laurent":
        coeffs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                coeffs[i + j] += a * b
        return Laurent(self.low + other.low, coeffs)

    def sign(self) -> int:
        """Sign at rho, by exact evaluation above the Cauchy bound."""
        if not self.coeffs:
            return 0
        scale = lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * scale) for c in self.coeffs]  # t^low > 0 is left out
        n = 2 + max(abs(a) for a in ints) // abs(ints[-1])
        value = 0
        for a in reversed(ints):
            value = value * n + a
        return (value > 0) - (value < 0)

    def top(self) -> int | None:
        """Largest exponent index with a nonzero coefficient; None for zero."""
        return self.low + len(self.coeffs) - 1 if self.coeffs else None


def _dense(*polys) -> list:
    """The sums ``polys`` on one grid, then the grid D: the lcm of all their
    exponent denominators."""
    grid = lcm(1, *(e.denominator for p in polys for e, _ in p.terms))
    return [Laurent.of(p.terms, grid) for p in polys] + [grid]


def compare(x, y) -> int:
    """Sign of x - y from the cross difference ``xn*yd - yn*xd`` and the denominators' signs."""
    xn, xd, yn, yd, _ = _dense(x.num, x.den, y.num, y.den)
    return (xn * yd - yn * xd).sign() * xd.sign() * yd.sign()


#: z = x op y  <=>  zn * (xd*yd) == zd * cross, with these cross terms (for
#: division y is nonzero and the common factor is xd*yn)
_CROSS = {
    "add": lambda xn, xd, yn, yd: (xd * yd, xn * yd + yn * xd),
    "sub": lambda xn, xd, yn, yd: (xd * yd, xn * yd - yn * xd),
    "mul": lambda xn, xd, yn, yd: (xd * yd, xn * yn),
    "div": lambda xn, xd, yn, yd: (xd * yn, xn * yd),
}


def is_result(z, op: str, x, y) -> bool:
    """Whether z = x op y, for op one of add, sub, mul, div."""
    zn, zd, xn, xd, yn, yd, _ = _dense(z.num, z.den, x.num, x.den, y.num, y.den)
    den, num = _CROSS[op](xn, xd, yn, yd)
    return (zn * den - zd * num).sign() == 0


def degree(x) -> Fraction | None:
    """The valuation of x = num/den; None for zero."""
    num, den, grid = _dense(x.num, x.den)
    return None if num.top() is None else Fraction(num.top() - den.top(), grid)


def remainder_degree(x, p) -> Fraction | None:
    """The valuation of x - p for a sum p, from ``num - p*den``; None when x = p."""
    num, den, q, grid = _dense(x.num, x.den, p)
    rem = num - q * den
    return None if rem.top() is None else Fraction(rem.top() - den.top(), grid)


def is_one(p) -> bool:
    """Whether the sum p is the constant 1."""
    q, _ = _dense(p)
    return q.low == 0 and q.coeffs == [1]
