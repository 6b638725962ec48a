"""Tests for rho-polynomials and their ratio field.

Derived expectations are computed by independent oracles: term-by-term
expansion for products, cross-multiplication for ratio equality, and
subtraction for series truncation thresholds.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from solidus.field import (
    NEG_INFINITY,
    ONE_POLY,
    Ordering,
    PreciseNum,
    RHO,
    RhoPoly,
    ZERO_POLY,
    as_polynomial,
    compare_precise,
    degree,
    render_poly,
    series_expand,
)
from solidus.generate import GeneratorConfig, Sampler


def poly(*pairs):
    return RhoPoly.from_terms(pairs)


def prec(num, den=ONE_POLY):
    return PreciseNum(RhoPoly.from_terms(num) if isinstance(num, list) else num, den)


def reference_terms(pairs):
    """Oracle for the term kernel: merge duplicates in a dict, then sort."""
    acc = {}
    for e, c in pairs:
        acc[e] = acc[e] + c if e in acc else c
    return tuple((e, c) for e, c in sorted(acc.items(), reverse=True) if c)


def brute_mul(a: RhoPoly, b: RhoPoly) -> RhoPoly:
    """Oracle: expand the product one term pair at a time via repeated addition."""
    total = ZERO_POLY
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            total = total + RhoPoly.rho_power(e1 + e2, c1 * c2)
    return total


class TestRhoPoly:
    def test_cancellation(self):
        assert poly((1, 1), (0, 1)) + poly((1, 1), (0, -1)) == poly((1, 2))

    def test_exponent_addition(self):
        half = RhoPoly.rho_power(F(1, 2))
        assert half * half == RHO

    def test_product_expansion(self):
        a = poly((1, 1), (0, 1))
        b = poly((1, 1), (0, -1))
        expected = brute_mul(a, b)
        assert a * b == expected == poly((2, 1), (0, -1))

    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 4).map(F),
                st.integers(-9, 9).filter(bool).map(F),
            ),
            max_size=4,
        ),
        st.lists(
            st.tuples(
                st.integers(-4, 4).map(F),
                st.integers(-9, 9).filter(bool).map(F),
            ),
            max_size=4,
        ),
    )
    def test_mul_matches_brute_force(self, ta, tb):
        a, b = RhoPoly.from_terms(ta), RhoPoly.from_terms(tb)
        assert a * b == brute_mul(a, b)

    def test_merge_and_product_match_the_dict_reference(self):
        sampler = Sampler(GeneratorConfig(seed=5), "merge-reference")
        pairs = []
        for _ in range(60):
            a, b = sampler.rhopoly(), sampler.rhopoly()
            half = RhoPoly.from_terms((e, -c) for e, c in a.terms[::2])
            lead, rest = RhoPoly(a.terms[:1]), RhoPoly(a.terms[1:])
            pairs += [(a, b), (a, -a), (a, half + b), (a, b.shift(F(1, 997))), (a, ZERO_POLY)]
            pairs.append((lead + rest, lead - rest))  # the product's cross terms cancel
        assert any(not a.is_zero() and (a + b).is_zero() for a, b in pairs)
        for a, b in pairs:
            negated = tuple((e, -c) for e, c in b.terms)
            assert (a + b).terms == reference_terms(a.terms + b.terms)
            assert (b + a).terms == reference_terms(b.terms + a.terms)
            assert (a - b).terms == reference_terms(a.terms + negated)
            product = [(e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in b.terms]
            assert (a * b).terms == reference_terms(product)

    def test_invariants_restored(self):
        p = RhoPoly.from_terms([(1, 1), (1, -1), (0, 3)])
        assert p == RhoPoly.constant(3)
        exps = [e for e, _ in p.terms]
        assert exps == sorted(exps, reverse=True)
        assert all(c != 0 for _, c in p.terms)


class TestPreciseNum:
    def test_inverse_cancels(self):
        x = PreciseNum(ONE_POLY, poly((1, 1), (0, 1)))
        assert x * PreciseNum.of(poly((1, 1), (0, 1))) == 1

    def test_add_like_fractions(self):
        inv_rho = PreciseNum.of(1) / PreciseNum.of(RHO)
        assert inv_rho + inv_rho == PreciseNum.of(2) / PreciseNum.of(RHO)

    def test_cross_multiplied_equality(self):
        # (rho^2 - 1)/(rho - 1) == rho + 1, checked against the cross product.
        a = PreciseNum(poly((2, 1), (0, -1)), poly((1, 1), (0, -1)))
        b = PreciseNum.of(poly((1, 1), (0, 1)))
        assert a.num * b.den == b.num * a.den
        assert a == b

    def test_equality_matches_the_difference_reference(self):
        sampler = Sampler(GeneratorConfig(seed=6), "equality-reference")
        pairs = []
        for _ in range(60):
            p, q, d = sampler.rhopoly(), sampler.rhopoly(), sampler.nonzero_rhopoly(max_terms=2)
            x = PreciseNum(p, d)
            pairs += [(x, PreciseNum(q, d)), (x, PreciseNum(p, d)), (x, PreciseNum(p * d, d * d)),
                      (x, sampler.precise()), (x, p), (x, 0)]
        assert any(a == b for a, b in pairs) and not all(a == b for a, b in pairs)
        for a, b in pairs:
            assert (a == b) == (a - PreciseNum.of(b)).is_zero(), (str(a), str(b))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PreciseNum.of(1) / PreciseNum.of(0)
        with pytest.raises(ZeroDivisionError):
            PreciseNum(ONE_POLY, ZERO_POLY)

    def test_denominator_normalized_monic_degree_zero(self):
        x = PreciseNum(poly((0, 2)), poly((1, 3)))  # 2 / (3 rho)
        assert x.den == ONE_POLY
        assert x.num == poly((-1, F(2, 3)))
        y = PreciseNum(ONE_POLY, poly((1, 2), (0, 2)))
        assert y.den.degree() == 0 and y.den.leading_coeff() == 1


class TestDegree:
    def test_leading_exponent(self):
        assert degree(prec([(2, 3), (1, 1)])) == 2

    def test_zero(self):
        assert degree(PreciseNum.of(0)) == NEG_INFINITY

    def test_ratio(self):
        x = PreciseNum(poly((1, 1), (0, 1)), poly((3, 1)))
        assert degree(x) == 1 - 3 == -2

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 9), st.integers(1, 9))
    def test_valuation_of_products(self, e1, e2, c1, c2):
        a = PreciseNum.of(RhoPoly.rho_power(e1, c1))
        b = PreciseNum.of(RhoPoly.rho_power(e2, c2))
        assert degree(a * b) == degree(a) + degree(b)


class TestComparePrecise:
    def test_rho_dominates_constants(self):
        assert compare_precise(PreciseNum.of(RHO), PreciseNum.of(10**100)) is Ordering.GT

    def test_reflexive(self):
        x = prec([(1, 1), (0, -2)])
        assert compare_precise(x, x) is Ordering.EQ

    def test_inverse_powers(self):
        # 1/rho - 1/rho^2 = (rho - 1)/rho^2 has positive leading coefficient.
        a = PreciseNum.of(1) / PreciseNum.of(RHO)
        b = PreciseNum.of(1) / PreciseNum.of(RHO * RHO)
        assert compare_precise(a, b) is Ordering.GT

    def test_sign_from_leading_terms(self):
        assert prec([(2, -1), (0, 100)]).sign() == -1
        assert prec([(F(1, 2), 1), (0, -100)]).sign() == 1


small_polys = st.lists(
    st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=2),
        st.integers(-5, 5).map(F),
    ),
    max_size=3,
).map(RhoPoly.from_terms)

nonzero_polys = small_polys.filter(lambda p: not p.is_zero())

precise_values = st.builds(
    lambda n, d: PreciseNum(n, d), small_polys, nonzero_polys
)


class TestOrderedFieldLaws:
    @settings(max_examples=60, deadline=None)
    @given(precise_values, precise_values, precise_values)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(precise_values, precise_values)
    def test_inverse_laws(self, a, b):
        assert a + (-a) == 0
        if not b.is_zero():
            assert (a / b) * b == a

    @settings(max_examples=60, deadline=None)
    @given(precise_values, precise_values, precise_values)
    def test_order_compatibility(self, a, b, c):
        lt = compare_precise(a, b)
        assert compare_precise(b, a).value == -lt.value
        if lt is Ordering.LT:
            assert a + c < b + c
            if c.sign() > 0:
                assert a * c < b * c

    @settings(max_examples=60, deadline=None)
    @given(precise_values, precise_values, precise_values)
    def test_transitivity(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @settings(max_examples=60, deadline=None)
    @given(precise_values, precise_values)
    def test_compare_agrees_with_cross_multiplication(self, a, b):
        # den is normalized positive, so a/b < c/d iff ad < cb as polynomials
        cross = (a.num * b.den - b.num * a.den).sign()
        assert compare_precise(a, b) is Ordering(cross)

    @settings(max_examples=60, deadline=None)
    @given(precise_values, precise_values)
    def test_degree_valuation(self, a, b):
        da, db = degree(a), degree(b)
        assert degree(a * b) == da + db
        ds = degree(a + b)
        assert ds <= max(da, db)
        if da != db:
            assert ds == max(da, db)


class TestSeriesExpand:
    def geometric(self):
        # 1/(1 - 1/rho) = 1 + rho^-1 + rho^-2 + ...
        return PreciseNum.of(1) / (PreciseNum.of(1) - PreciseNum.of(RhoPoly.rho_power(-1)))

    def test_geometric_at_zero(self):
        x = self.geometric()
        assert series_expand(x, 0, strict=True) == ZERO_POLY
        assert series_expand(x, 0, strict=False) == ONE_POLY

    def test_plain_polynomial_filter(self):
        x = prec([(2, 1), (0, 1), (-1, 1)])
        assert series_expand(x, 0, strict=False) == poly((2, 1), (0, 1))
        assert series_expand(x, 0, strict=True) == poly((2, 1))
        assert series_expand(x, 2, strict=True) == ZERO_POLY

    def test_zero(self):
        assert series_expand(PreciseNum.of(0), F(5), strict=True) == ZERO_POLY

    @pytest.mark.parametrize("cutoff", [F(-3), F(-1, 2), F(0), F(2)])
    @pytest.mark.parametrize("strict", [True, False])
    def test_threshold_postcondition(self, cutoff, strict):
        # Oracle: subtract the truncation and look at the remainder's degree.
        x = self.geometric() * prec([(2, 1), (F(1, 2), 3)])
        p = series_expand(x, cutoff, strict)
        for e, _ in p.terms:
            assert e > cutoff if strict else e >= cutoff
        rem = x - PreciseNum.of(p)
        if strict:
            assert degree(rem) <= cutoff
        else:
            assert degree(rem) < cutoff

    def test_terminates_well_below_degree(self):
        x = self.geometric()
        p = series_expand(x, -6, strict=False)
        assert p.terms[0] == (F(0), F(1))
        assert len(p.terms) == 7  # exponents 0 .. -6
        assert degree(x - PreciseNum.of(p)) < -6


class TestAsPolynomial:
    def test_exact_division(self):
        x = PreciseNum(poly((2, 1), (0, -1)), poly((1, 1), (0, -1)))
        assert as_polynomial(x) == poly((1, 1), (0, 1))

    def test_non_polynomial(self):
        x = PreciseNum(ONE_POLY, poly((1, 1), (0, -1)))
        assert as_polynomial(x) is None

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, a, b):
        assert as_polynomial(PreciseNum.of(a * b) / PreciseNum.of(b)) == a


class TestRendering:
    def test_mixed_exponent_rendering(self):
        assert render_poly(poly((2, 1), (F(1, 2), -3), (0, F(1, 2)))) == "rho^2 - 3*rho^(1/2) + 1/2"

    def test_ratio_shape(self):
        x = PreciseNum(ONE_POLY, poly((0, 1), (-1, -1)))
        assert str(x) == "(1)/(1 - rho^(-1))"

    def test_negative_exponent_parenthesized(self):
        assert render_poly(poly((-2, 2))) == "2*rho^(-2)"

    def test_unit_coefficients_omitted(self):
        assert render_poly(poly((1, -1), (0, 1))) == "-rho + 1"
