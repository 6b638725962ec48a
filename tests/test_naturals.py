"""Tests for the natural-number interpretation and the induction battery."""

from fractions import Fraction as F

import pytest

from solidus.checks import REGISTRY
from solidus.errors import PreconditionFailedError, UnknownFormulaError
from solidus.external import canonicalize, ext_compare, ext_mul, pure
from solidus.field import Ordering, PreciseNum, RhoPoly
from solidus.naturals import (
    INDUCTION_CATALOG,
    archimedean_witness,
    induction_spotcheck,
    is_natural,
)
from solidus.neutrix import FULL, INFINITESIMALS, LIMITED

rp = RhoPoly.rho_power


class TestIsNatural:
    def test_zero_and_successors(self):
        assert is_natural(0)
        assert is_natural(1)
        assert is_natural(PreciseNum.of(7) + 1)

    def test_polynomial_naturals(self):
        assert is_natural(RhoPoly([(2, 1), (1, 3), (0, 1)]))
        assert is_natural(RhoPoly([(1, 1), (0, -1)]))  # rho - 1 is positive

    def test_rejections(self):
        assert not is_natural(rp(F(1, 2)))
        assert not is_natural(RhoPoly([(1, 1), (0, F(1, 2))]))
        assert not is_natural(-1)
        assert not is_natural(PreciseNum.of(1) / PreciseNum.of(rp(1)))
        assert not is_natural(RhoPoly([(1, -1), (0, 5)]))  # negative value

    def test_value_level_membership(self):
        # (rho^2 - 1)/(rho - 1) = rho + 1
        x = PreciseNum(
            RhoPoly([(2, 1), (0, -1)]), RhoPoly([(1, 1), (0, -1)])
        )
        assert is_natural(x)

    def test_closure(self):
        xs = [PreciseNum.of(v) for v in (0, 3, rp(1), RhoPoly([(2, 2), (0, 1)]))]
        for a in xs:
            for b in xs:
                assert is_natural(a + b)
                assert is_natural(a * b)

    def test_discreteness(self):
        naturals = [PreciseNum.of(v) for v in (0, 1, 5, rp(1), rp(2))]
        for x in naturals:
            for mid in (x + F(1, 2), x + F(1, 3), x + PreciseNum.of(rp(-1))):
                assert x < mid < x + 1
                assert not is_natural(mid)


class TestArchimedeanWitness:
    def test_standard_pair(self):
        z = archimedean_witness(canonicalize(1), canonicalize(2))
        assert z == RhoPoly.constant(3)

    def test_infinite_target(self):
        z = archimedean_witness(canonicalize(1), canonicalize(rp(1)))
        assert is_natural(z)
        assert ext_compare(ext_mul(canonicalize(z), canonicalize(1)), canonicalize(rp(1))) is Ordering.GT

    def test_infinitesimal_base(self):
        x = canonicalize(rp(-1))
        y = canonicalize(1, INFINITESIMALS)
        z = archimedean_witness(x, y)
        assert ext_compare(ext_mul(canonicalize(z), x), y) is Ordering.GT

    def test_pure_neutrix_operands(self):
        x = pure(INFINITESIMALS)
        y = pure(LIMITED)
        z = archimedean_witness(x, y)
        assert ext_compare(ext_mul(canonicalize(z), x), y) is Ordering.GT

    def test_postcondition_on_many_pairs(self):
        pairs = [
            (canonicalize(F(1, 3)), canonicalize(rp(2), LIMITED)),
            (canonicalize(rp(F(-3, 2)), INFINITESIMALS), canonicalize(rp(1))),
            (canonicalize(2, INFINITESIMALS), canonicalize(5, LIMITED)),
        ]
        for x, y in pairs:
            z = archimedean_witness(x, y)
            assert is_natural(z)
            assert ext_compare(ext_mul(canonicalize(z), x), y) is Ordering.GT

    def test_preconditions(self):
        with pytest.raises(PreconditionFailedError):
            archimedean_witness(canonicalize(2), canonicalize(1))
        with pytest.raises(PreconditionFailedError):
            archimedean_witness(canonicalize(-1), canonicalize(1))
        with pytest.raises(PreconditionFailedError):
            archimedean_witness(canonicalize(1), pure(FULL))


class TestInduction:
    def test_catalog_size(self):
        assert len(INDUCTION_CATALOG) >= 11

    def test_add_zero(self):
        assert induction_spotcheck("add_zero", bound=50) == ([], [])

    def test_mul_succ(self):
        assert induction_spotcheck("mul_succ", bound=50) == ([], [])

    def test_predecessor(self):
        assert induction_spotcheck("predecessor", bound=50) == ([], [])

    def test_even_or_odd_expected_fail(self):
        steps, conclusions = induction_spotcheck("even_or_odd", bound=20)
        assert not steps
        assert conclusions  # fails at nonstandard points only
        assert all("rho" in f for f in conclusions)
        # the check catalog, not the battery, declares the failure expected
        law = REGISTRY["axiom.arith.induction_even_odd"]
        assert law.expect_failures
        assert "rho" in law.note

    def test_unknown_formula(self):
        with pytest.raises(UnknownFormulaError):
            induction_spotcheck("no_such_formula")

    def test_negative_bound_rejected(self):
        # a negative bound would take the base case at a nonstandard sample
        with pytest.raises(PreconditionFailedError):
            induction_spotcheck("even_or_odd", bound=-3)
        # the base case holds: 0 is not a conclusion failure
        assert "0" not in induction_spotcheck("even_or_odd", bound=0)[1]

    # 26 standard and 6 nonstandard samples, then the successors of the points
    # where the formula holds that are not samples: 26, and for add_zero rho + 2,
    # 2*rho + 1, rho^2 + 1, rho^2 + 3*rho + 2; even_or_odd holds at 2*rho only
    @pytest.mark.parametrize("fid, calls", [("add_zero", 37), ("even_or_odd", 34)])
    def test_each_point_is_evaluated_once(self, monkeypatch, fid, calls):
        holds = INDUCTION_CATALOG[fid]
        points = []

        def counted(x):
            points.append(x)
            return holds(x)

        monkeypatch.setitem(INDUCTION_CATALOG, fid, counted)
        got = induction_spotcheck(fid, bound=25)
        monkeypatch.undo()
        assert got == induction_spotcheck(fid, bound=25)
        assert len(points) == calls
        assert len(set(points)) == len(points)

    def test_full_battery(self):
        failing = [fid for fid in INDUCTION_CATALOG if any(induction_spotcheck(fid, bound=20))]
        assert failing == ["even_or_odd"]
        assert len(INDUCTION_CATALOG) - len(failing) >= 10
