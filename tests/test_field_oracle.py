"""The precise field against the independent dense oracle of ``dense_oracle``.

The oracle reads only the ``terms`` of a value's numerator and denominator and
does its own arithmetic, so these checks do not judge the implementation by
its own arithmetic.  Values are seeded ``Sampler`` draws, half of them ratios,
plus pairs of equal values over different denominators.
"""

from fractions import Fraction as F

import pytest

import dense_oracle as oracle
from solidus.field import Ordering, PreciseNum, as_polynomial, compare_precise, series_expand
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


def test_arithmetic_matches_the_oracle():
    for x, y in PAIRS:
        for op, z in (("add", x + y), ("sub", x - y), ("mul", x * y)):
            assert oracle.is_result(z, op, x, y), (op, str(x), str(y))
        if not y.is_zero():
            assert oracle.is_result(x / y, "div", x, y), (str(x), str(y))


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
    hits = 0
    for x in VALUES:
        if x.is_zero():
            assert series_expand(x, 0, strict).is_zero()
            continue
        for cutoff in _cutoffs(x):
            p = series_expand(x, cutoff, strict)
            # every kept term lies above the cutoff ...
            assert all(e > cutoff if strict else e >= cutoff for e, _ in p.terms), (str(x), cutoff)
            # ... and what is left of x falls below it
            rest = oracle.remainder_degree(x, p)
            assert rest is None or (rest <= cutoff if strict else rest < cutoff), (str(x), cutoff)
            # the cutoff is an exponent of the expansion: kept, or the remainder's degree
            hits += rest == cutoff or any(e == cutoff for e, _ in p.terms)
    assert hits > len(VALUES)


def test_as_polynomial_is_exact_and_complete():
    s = Sampler(GeneratorConfig(seed=41), "dense-oracle-polynomial")
    found = 0
    for x, r in zip(VALUES, (s.nonzero_rhopoly() for _ in VALUES)):
        for value in (x, PreciseNum(x.num * r, r)):
            p = as_polynomial(value)
            if p is None:
                # only a ratio that is no polynomial has none: x.num*r over r is x.num
                assert value is x and not oracle.is_one(x.den), str(value)
            else:
                assert oracle.remainder_degree(value, p) is None, str(value)
                found += 1
    assert len(VALUES) < found < 2 * len(VALUES)
