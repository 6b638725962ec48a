"""An exact oracle for the precise field that shares no arithmetic with it.

A precise element is a ratio ``num/den`` of finite sums ``sum c * rho^e`` with
rational exponents.  This module reads only the stored fields of those sums:
``grid``, ``den`` and the int pairs ``ks``, the value ``sum (c/den) *
rho^(k/grid)``, whether or not they are in canonical form.  It maps them onto
sparse Laurent polynomials in ``t = rho^(1/D)``, where ``D`` is the lcm of the
grids, so every exponent becomes an int index, and keeps each as a dict from
index to nonzero int coefficient: a ratio's numerator and denominator are both
multiplied by one positive int that clears their denominators, which leaves
its value as it was.  ``rho^(1/400)`` and ``rho^(1/399)`` give two entries,
not a list of ``D = 159600`` of them.  Sums, differences and products are
computed on the dicts with its own loops.

rho is positive infinite, so ``rho^e`` outgrows every finite sum of lower
powers: a nonzero sum has the sign of its coefficient at its largest
exponent, and a ratio is compared through the sign of a cross difference,
which decides equality as well.  Every cross difference below takes one
factor from each ratio in each product, so the positive multipliers change
no sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

#: the stored fields of the denominator 1, for a sum read as a ratio
ONE = (1, 1, ((0, 1),))


class Sum:
    """``sum c * t^i`` over the items ``i: c`` of ``coeffs``, no coefficient zero."""

    def __init__(self, coeffs: dict):
        self.coeffs = {i: c for i, c in coeffs.items() if c}

    @staticmethod
    def of(ks, m: int, s: int) -> "Sum":
        """``sum (s*c) * t^(m*k)`` over the int pairs ``(k, c)`` of ``ks``."""
        coeffs: dict = {}
        for k, c in ks:
            coeffs[m * k] = coeffs.get(m * k, 0) + s * c
        return Sum(coeffs)

    def _combine(self, other: "Sum", sign: int) -> "Sum":
        """self + sign*other."""
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            coeffs[i] = coeffs.get(i, 0) + sign * c
        return Sum(coeffs)

    def __add__(self, other: "Sum") -> "Sum":
        return self._combine(other, 1)

    def __sub__(self, other: "Sum") -> "Sum":
        return self._combine(other, -1)

    def __mul__(self, other: "Sum") -> "Sum":
        coeffs: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                coeffs[i + j] = coeffs.get(i + j, 0) + a * b
        return Sum(coeffs)

    def top(self) -> int | None:
        """The largest index with a nonzero coefficient; None for zero."""
        return max(self.coeffs) if self.coeffs else None

    def sign(self) -> int:
        """The sign at rho: that of the coefficient at the largest index."""
        if not self.coeffs:
            return 0
        return 1 if self.coeffs[self.top()] > 0 else -1


def _sums(*ratios) -> list:
    """Each ratio, a pair of stored sums ``(grid, den, ks)``, as two Sums on one grid,
    both multiplied by the lcm of the pair's ``den``; then the grid D, the lcm of all
    their grids."""
    grid = lcm(*(g for ratio in ratios for g, _, _ in ratio))
    sums = []
    for ratio in ratios:
        scale = lcm(*(d for _, d, _ in ratio))
        sums += [Sum.of(ks, grid // g, scale // d) for g, d, ks in ratio]
    return sums + [grid]


def _stored(p) -> tuple:
    return p.grid, p.den, p.ks


def _ratio(x) -> tuple:
    return _stored(x.num), _stored(x.den)


def compare(x, y) -> int:
    """Sign of x - y from the cross difference ``xn*yd - yn*xd`` and the denominators' signs."""
    xn, xd, yn, yd, _ = _sums(_ratio(x), _ratio(y))
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
    zn, zd, xn, xd, yn, yd, _ = _sums(_ratio(z), _ratio(x), _ratio(y))
    den, num = _CROSS[op](xn, xd, yn, yd)
    return (zn * den - zd * num).sign() == 0


def degree(x) -> Fraction | None:
    """The valuation of x = num/den; None for zero."""
    num, den, grid = _sums(_ratio(x))
    return None if num.top() is None else Fraction(num.top() - den.top(), grid)


def remainder_degree(x, p) -> Fraction | None:
    """The valuation of x - p for a sum p, from ``xn*pd - pn*xd`` with p read as p/1;
    None when x = p."""
    xn, xd, pn, pd, grid = _sums(_ratio(x), (_stored(p), ONE))
    rem = xn * pd - pn * xd
    return None if rem.top() is None else Fraction(rem.top() - xd.top(), grid)


def is_one(p) -> bool:
    """Whether the sum p is the constant 1."""
    pn, pd, _ = _sums((_stored(p), ONE))
    return pn.coeffs == pd.coeffs
