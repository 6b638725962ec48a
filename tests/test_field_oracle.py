"""The precise field against the independent oracle of ``field_oracle``.

The oracle reads only the stored fields of a value's numerator and denominator
and does its own arithmetic, so these checks do not judge the implementation by
its own arithmetic.  Values are seeded ``Sampler`` draws, half of them ratios,
plus pairs of equal values over different denominators, and the kernel inputs
of ``test_int_kernel``: polynomials on mixed grids with exponent denominators
up to 400, pairs that cancel, products with monomials (shifts and scales),
ratios of those polynomials (the normalisation), and the truncation cutoffs
and division floors chosen there.
"""

from fractions import Fraction as F

import pytest

import field_oracle as oracle
import test_int_kernel as kernel
from solidus.field import Ordering, PreciseNum, RhoPoly, _long_division, as_polynomial, compare_precise, series_expand
from solidus.generate import GeneratorConfig, Sampler


def _value(s):
    """A polynomial or, half the time, a ratio over a two-term denominator."""
    num = s.rhopoly()
    if s.rng.random() < 0.5:
        return PreciseNum(num)
    den = s.nonzero_rhopoly(max_terms=2)
    while len(den.terms) < 2:
        den = s.nonzero_rhopoly(max_terms=2)
    return PreciseNum(num, den)


def _pairs(n=300):
    s = Sampler(GeneratorConfig(seed=37), "dense-oracle")
    pairs = []
    for i in range(n):
        x = _value(s)
        if i % 4 == 0:
            r = _value(s)
            pairs.append((x, x if r.is_zero() else (x * r) / r))
        else:
            pairs.append((x, _value(s)))
    return pairs


PAIRS = _pairs()
VALUES = [x for x, _ in PAIRS]
#: the kernel's polynomial pairs, and each ratio of them with its numerator and denominator
KERNEL_PAIRS = [(PreciseNum(a), PreciseNum(b)) for a, b in kernel.PAIRS]
KERNEL_RATIOS = [(PreciseNum(a, b), a, b) for a, b in kernel.PAIRS if not b.is_zero()]
MONOMIALS = [PreciseNum(RhoPoly.rho_power(dq)) for dq in kernel.SHIFTS] + [
    PreciseNum(RhoPoly.constant(f)) for f in kernel.SCALES
]


def test_samples_cover_ratios_and_every_order():
    assert sum(not oracle.is_one(x.den) for x in VALUES) > len(VALUES) // 3
    assert {oracle.compare(x, y) for x, y in PAIRS} == {-1, 0, 1}


def test_order_matches_the_cross_difference():
    for x, y in PAIRS:
        want = Ordering(oracle.compare(x, y))
        assert compare_precise(x, y) is want, (str(x), str(y))
        got = (x < y, x <= y, x > y, x >= y, x == y, x != y)
        assert got == (want is Ordering.LT, want is not Ordering.GT, want is Ordering.GT,
                       want is not Ordering.LT, want is Ordering.EQ, want is not Ordering.EQ), (str(x), str(y))
        # the hash/eq contract: equal values, over different denominators too, hash alike
        assert want is not Ordering.EQ or hash(x) == hash(y), (str(x), str(y))


def test_arithmetic_matches_the_oracle():
    zero = PreciseNum()
    for x, y in PAIRS + KERNEL_PAIRS:
        for op, z in (("add", x + y), ("sub", x - y), ("mul", x * y)):
            assert oracle.is_result(z, op, x, y), (op, str(x), str(y))
        assert oracle.is_result(-y, "sub", zero, y), str(y)
        if not y.is_zero():
            assert oracle.is_result(x / y, "div", x, y), (str(x), str(y))
    # a product with rho^dq shifts the exponents, one with a constant scales the coefficients
    for x, _ in KERNEL_PAIRS:
        for m in MONOMIALS:
            assert oracle.is_result(x * m, "mul", x, m), (str(x), str(m))
    # the normalisation makes the denominator monic of degree zero and keeps the value
    for x, a, b in KERNEL_RATIOS:
        assert oracle.is_result(x, "div", PreciseNum(a), PreciseNum(b)), (str(a), str(b))


def test_degree_matches_the_oracle():
    for x in VALUES:
        want = oracle.degree(x)
        assert x.degree() == (float("-inf") if want is None else want), str(x)


def _cutoffs(x):
    """Exponents the expansion of x really has, and one off their grid."""
    d = oracle.degree(x)
    below = series_expand(x, d - 3, strict=False)
    exponents = {e for e, _ in x.num.terms} | {e for e, _ in below.terms}
    return sorted(exponents | {d - F(1, 3)})


@pytest.mark.parametrize("strict", [True, False])
def test_series_expand_is_the_expansion_above_the_cutoff(strict):
    # the oracle's cutoffs for the draws; the kernel's truncation cutoffs for its
    # polynomials and its division floors for its ratios
    cases = [(x, _cutoffs(x)) for x in VALUES if not x.is_zero()]
    cases += [(x, kernel._cutoffs(x.num)) for x, _ in KERNEL_PAIRS]
    cases += [(x, kernel._floors(x)) for x, _, _ in KERNEL_RATIOS]
    assert all(series_expand(x, 0, strict).is_zero() for x in VALUES if x.is_zero())
    hits = 0
    for x, cutoffs in cases:
        for cutoff in cutoffs:
            p = series_expand(x, cutoff, strict)
            # every kept term lies above the cutoff ...
            assert all(e > cutoff if strict else e >= cutoff for e, _ in p.terms), (str(x), cutoff)
            # ... and what is left of x falls below it
            rest = oracle.remainder_degree(x, p)
            assert rest is None or (rest <= cutoff if strict else rest < cutoff), (str(x), cutoff)
            # the cutoff is an exponent of the expansion: kept, or the remainder's degree
            hits += rest == cutoff or any(e == cutoff for e, _ in p.terms)
    assert hits > len(cases)
    # the long division's remainder is what is left of a ratio: x - quotient = rem/den
    for x, _, _ in KERNEL_RATIOS:
        for floor in kernel._floors(x):
            q, rem = _long_division(x.num, x.den, floor.numerator, floor.denominator, strict)
            assert oracle.is_result(PreciseNum(rem, x.den), "sub", x, PreciseNum(q)), (str(x), floor)


def test_as_polynomial_is_exact_and_complete():
    s = Sampler(GeneratorConfig(seed=41), "dense-oracle-polynomial")
    # each ratio with a polynomial over a denominator: x.num*r over r is x.num, a*b over b is a
    cases = [(x, PreciseNum(x.num * r, r)) for x, r in zip(VALUES, [s.nonzero_rhopoly() for _ in VALUES])]
    cases += [(x, PreciseNum(a * b, b)) for x, a, b in KERNEL_RATIOS]
    found = 0
    for x, product in cases:
        for value in (x, product):
            p = as_polynomial(value)
            if p is None:
                # only a ratio that is no polynomial has none
                assert value is x and not oracle.is_one(x.den), str(value)
            else:
                assert oracle.remainder_degree(value, p) is None, str(value)
                found += 1
    assert len(cases) < found < 2 * len(cases)
