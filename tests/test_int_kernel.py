"""The integer-grid term kernel: its canonical form, and its results against the
``Fraction``-pair reference in ``fraction_kernel``.

A ``RhoPoly`` is stored as ``(grid, den, ks)``, the value
``sum (c/den) * rho^(k/grid)``.  Every result of ``+ - *`` (products with
``rho_power(dq)`` and ``constant(f)`` shift and scale), the polynomial branch
of ``series_expand`` and ``_long_division`` must be canonical and must have
the reference's terms.  Operands are seeded ``Sampler`` draws and polynomials
on mixed grids with exponent denominators up to 400.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest

import fraction_kernel as ref
from solidus.field import (
    ONE_POLY,
    RHO,
    ZERO_POLY,
    Ordering,
    PreciseNum,
    RhoPoly,
    _long_division,
    compare_precise,
    series_expand,
)
from solidus.generate import GeneratorConfig, Sampler


def assert_canonical(p: RhoPoly) -> None:
    grid, den, ks = p.grid, p.den, p.ks
    assert type(ks) is tuple and all(type(k) is int and type(c) is int for k, c in ks), repr(p)
    assert all(a[0] > b[0] for a, b in zip(ks, ks[1:])), repr(p)
    assert all(c for _, c in ks), repr(p)
    # both gcds include the empty case: zero is (1, 1, ())
    assert den > 0 and gcd(den, *(c for _, c in ks)) == 1, (den, ks)
    assert grid > 0 and gcd(grid, *(k for k, _ in ks)) == 1, (grid, ks)


def assert_precise_canonical(x: PreciseNum) -> None:
    assert_canonical(x.num)
    assert_canonical(x.den)
    assert x.den.ks[0] == (0, x.den.den), repr(x)  # monic of degree zero
    if x.is_zero():
        assert x.den == ONE_POLY


def _mixed_grid_poly(rng: random.Random) -> RhoPoly:
    pairs = []
    for _ in range(rng.randint(0, 4)):
        d = rng.randint(1, 400)
        pairs.append((F(rng.randint(-2 * d, 2 * d), d), F(rng.randint(-9, 9), rng.randint(1, 6))))
    return RhoPoly(pairs)


def _pairs():
    s = Sampler(GeneratorConfig(seed=11), "int-kernel")
    rng = random.Random(11)
    pairs = []
    for i in range(150):
        a, b = s.rhopoly(), s.rhopoly()
        pairs += [(a, b), (_mixed_grid_poly(rng), _mixed_grid_poly(rng)), (a, _mixed_grid_poly(rng))]
        if i % 5 == 0:
            pairs += [(a, a), (a, -a), (a, ZERO_POLY)]
    return pairs


PAIRS = _pairs()
SHIFTS = (0, 2, F(-3, 7), F(1, 2), F(-5, 400))
SCALES = (0, 1, -1, F(-2, 3), 5, F(7, 400))


def _cutoffs(p: RhoPoly):
    """Exponents of p, points between and beyond them, and one off every grid."""
    exponents = [e for e, _ in p.terms]
    return sorted(set(exponents) | {e - F(1, 3) for e in exponents} | {F(0), F(-7, 401)})


def test_samples_cover_mixed_grids_and_cancellation():
    grids = {p.grid for a, b in PAIRS for p in (a, b)}
    assert max(grids) > 100 and 1 in grids
    assert any(not a.is_zero() and (a + b).is_zero() for a, b in PAIRS)
    assert any((a * b).grid < max(a.grid, b.grid) for a, b in PAIRS)


def test_sum_difference_product_match_the_reference():
    for a, b in PAIRS:
        ta, tb = a.terms, b.terms
        for got, want in (
            (a + b, ref.add(ta, tb)),
            (a - b, ref.add(ta, ref.neg(tb))),
            (-a, ref.neg(ta)),
            (a * b, ref.mul(ta, tb)),
        ):
            assert_canonical(got)
            assert got.terms == want, (repr(a), repr(b))


def test_shift_and_scale_match_the_reference():
    for a, _ in PAIRS:
        for dq in SHIFTS:
            got = a * RhoPoly.rho_power(dq)
            assert_canonical(got)
            assert got.terms == ref.shift(a.terms, dq), (repr(a), dq)
        for f in SCALES:
            got = a * RhoPoly.constant(f)
            assert_canonical(got)
            assert got.terms == ref.scale(a.terms, f), (repr(a), f)


@pytest.mark.parametrize("strict", [True, False])
def test_polynomial_truncation_matches_the_reference(strict):
    for a, _ in PAIRS:
        for cutoff in _cutoffs(a):
            got = series_expand(PreciseNum(a), cutoff, strict)
            assert_canonical(got)
            assert got.terms == ref.truncate(a.terms, cutoff, strict), (repr(a), cutoff)


def _floors(x: PreciseNum):
    """Floors a few steps of the denominator's smallest gap below the top, where
    the expansion of x has few terms even on a fine grid, and one off every grid."""
    d = x.num.degree() if not x.is_zero() else F(0)
    gap = -x.den.terms[1][0] if len(x.den.ks) > 1 else F(1)
    return [d, d - gap, d - 2 * gap, d - F(5, 2) * gap, d - F(1, 401)]


@pytest.mark.parametrize("strict", [True, False])
def test_normalisation_and_long_division_match_the_reference(strict):
    for a, b in PAIRS:
        if b.is_zero():
            continue
        x = PreciseNum(a, b)
        assert_precise_canonical(x)
        want_num, want_den = ref.normalize(a.terms, b.terms)
        assert (x.num.terms, x.den.terms) == (want_num, want_den), (repr(a), repr(b))
        for floor in _floors(x):
            q, r = _long_division(x.num, x.den, floor.numerator, floor.denominator, strict)
            assert_canonical(q)
            assert_canonical(r)
            assert (q.terms, r.terms) == ref.long_division(want_num, want_den, floor, strict), (repr(x), floor)


def test_field_results_are_canonical():
    for a, b in PAIRS:
        x, y = PreciseNum(a), PreciseNum(b, a) if not a.is_zero() else PreciseNum(b)
        results = [x + y, x - y, x * y, -y]
        if not y.is_zero():
            results.append(x / y)
        for z in results:
            assert_precise_canonical(z)


def test_equal_values_have_equal_fields_and_hashes():
    rng = random.Random(5)
    for a, b in PAIRS:
        shuffled = list(a.terms)
        rng.shuffle(shuffled)
        # every coefficient split in two parts, in another order
        split = [(e, c / 3) for e, c in shuffled] + [(e, 2 * c / 3) for e, c in reversed(shuffled)]
        for x, y in ((a * b, b * a), ((a + b) - b, a), (RhoPoly(split), a),
                     (a * RhoPoly.rho_power(F(1, 3)) * RhoPoly.rho_power(F(-1, 3)), a),
                     (a * RhoPoly.constant(F(2, 7)) * RhoPoly.constant(F(7, 2)), a)):
            assert (x.grid, x.den, x.ks) == (y.grid, y.den, y.ks), (repr(x), repr(y))
            assert x == y and hash(x) == hash(y)


def test_equality_reads_grid_and_den():
    # equal int pairs over another denominator or grid are other values
    assert RhoPoly.constant(F(1, 2)).ks == ONE_POLY.ks and RhoPoly.constant(F(1, 2)) != ONE_POLY
    assert RhoPoly.rho_power(F(1, 2)).ks == RHO.ks and RhoPoly.rho_power(F(1, 2)) != RHO
    assert RhoPoly.constant(F(1, 2)) != 1 and RhoPoly.constant(F(1, 2)) == F(1, 2)


def test_special_cases():
    half = RhoPoly.rho_power(F(1, 2))
    # exponent denominators up to 400, and products that collapse the grid
    assert RhoPoly.rho_power(F(1, 400)) * RhoPoly.rho_power(F(399, 400)) == RHO
    assert (half * half).grid == 1 and half * half == RHO
    assert (RhoPoly([(F(1, 400), 1), (F(1, 2), 1)]) * half).grid == 400
    # content cancellation: 1/2 + 1/2 is the integer 1
    one = RhoPoly.constant(F(1, 2)) + RhoPoly.constant(F(1, 2))
    assert (one.grid, one.den, one.ks) == (1, 1, ((0, 1),)) and one == ONE_POLY
    # full cancellation to zero, on any grid
    p = RhoPoly([(F(3, 400), F(1, 3)), (F(-1, 2), 5)])
    for z in (p - p, p + (-p), p * RhoPoly.constant(0), p * ZERO_POLY):
        assert (z.grid, z.den, z.ks) == (1, 1, ()) and z == ZERO_POLY and z.is_zero()
    # shifts (products with rho^dq) by 0 and by a negative dq
    assert p * RhoPoly.rho_power(0) == p
    assert (p * RhoPoly.rho_power(F(-3, 400))).terms == ((F(0), F(1, 3)), (F(-1, 2) - F(3, 400), F(5)))


def test_constants_hash_like_numbers():
    assert hash(RhoPoly.constant(F(1, 2))) == hash(F(1, 2))
    assert RhoPoly.constant(F(4, 2)) == 2 and hash(RhoPoly.constant(F(4, 2))) == hash(2)
    assert RhoPoly.constant(-3) == F(-3) and hash(RhoPoly.constant(-3)) == hash(-3)
    assert RhoPoly() == 0 and hash(RhoPoly()) == hash(0) == hash(PreciseNum.of(0))
    # a nonconstant value hashes its leading term
    p = RhoPoly([(F(1, 2), F(1, 3)), (0, 1)])
    assert hash(p) == hash((F(1, 2), F(1, 3))) == hash(PreciseNum(p))


def test_construction_from_term_pairs_is_canonical():
    # unsorted pairs: the old constructor stored them as given
    p = RhoPoly(((F(0), F(-1)), (F(1), F(1))))
    assert str(p) == "rho - 1" and p.sign() == 1 and p.degree() == 1
    assert p == RhoPoly([(1, 1), (0, -1)])
    assert compare_precise(PreciseNum(p), 0) is Ordering.GT
    # a zero coefficient: the old constructor kept a term 0*rho
    z = RhoPoly(((F(1), F(0)),))
    assert z.is_zero() and z == RhoPoly() and str(z) == "0"
    # duplicate exponents merge
    assert RhoPoly(((1, 1), (1, F(1, 2)))) == RhoPoly.rho_power(1, F(3, 2))
    assert_canonical(p)
    assert_canonical(z)
