"""Tests for external-number arithmetic, order, classification and shadows.

Minkowski soundness and the order definition are checked against a
representative-sampling oracle: members of alpha are rep + g with g drawn from
the neutrix near its threshold.
"""

import operator
from fractions import Fraction as F

import pytest

from solidus.errors import NotLimitedError, NotZerolessError
from solidus.external import (
    Classification,
    EXT_ONE,
    EXT_ZERO,
    ExternalNum,
    as_external,
    canonicalize,
    classify,
    ext_add,
    ext_compare,
    ext_disjoint,
    ext_inv,
    ext_member,
    ext_mul,
    ext_neg,
    ext_subset,
    is_limited,
    is_zeroless,
    magnitude,
    pure,
    render_external,
    shadow,
    unity,
)
from solidus.field import ONE_POLY, Ordering, PreciseNum, RHO, RhoPoly
from solidus.generate import GeneratorConfig, Sampler
from solidus.halfline import HalflineKind, lower
from solidus.neutrix import (
    FULL,
    INFINITESIMALS,
    LIMITED,
    NX_ZERO,
    closed_cut,
    nx_add,
    nx_scale,
    open_cut,
)

rp = RhoPoly.rho_power


def near_threshold_members(nx):
    """Group elements of nx with degrees hugging the threshold."""
    if nx == NX_ZERO:
        return [PreciseNum.of(0)]
    if nx == FULL:
        return [PreciseNum.of(x) for x in (0, 1, rp(3), rp(-3, -2))]
    q = nx.q
    out = [PreciseNum.of(0), PreciseNum.of(rp(q - 1, 2)), PreciseNum.of(rp(q - F(1, 2), -1))]
    if nx == closed_cut(q):
        out.append(PreciseNum.of(rp(q)))
        out.append(PreciseNum.of(rp(q, -3)))
    return out


def members(alpha):
    return [alpha.rep + g for g in near_threshold_members(alpha.nx)]


class TestCanonicalize:
    def test_absorption_into_limited(self):
        x = canonicalize(rp(1) + RhoPoly.constant(3) + rp(-1), LIMITED)
        assert x.rep == PreciseNum.of(rp(1))
        assert x.nx == LIMITED
        # oracle: the dropped tail is a member of the neutrix
        assert ext_member(rp(1) + RhoPoly.constant(3) + rp(-1), x)

    def test_zero_neutrix_keeps_ratio(self):
        ratio = PreciseNum(ONE_POLY, RhoPoly([(1, 1), (0, 1)]))
        assert canonicalize(ratio, NX_ZERO).rep == ratio

    def test_series_absorption(self):
        geometric = PreciseNum.of(1) / (PreciseNum.of(1) - PreciseNum.of(rp(-1)))
        x = canonicalize(geometric, INFINITESIMALS)
        assert x == canonicalize(1, INFINITESIMALS)

    def test_threshold_term_survives_open_cut(self):
        x = canonicalize(rp(0), INFINITESIMALS)
        assert x.rep == 1
        y = canonicalize(rp(0), LIMITED)
        assert y.rep.is_zero()

    def test_full_collapses_rep(self):
        assert canonicalize(rp(2, 5), FULL).rep.is_zero()

    def test_equal_iff_same_parts(self):
        assert canonicalize(3 + 0, LIMITED) == canonicalize(5, LIMITED)
        assert canonicalize(rp(1), LIMITED) != canonicalize(rp(1), INFINITESIMALS)

    def test_the_constructor_is_canonical(self):
        assert canonicalize is ExternalNum
        a = ExternalNum(PreciseNum.of(1), LIMITED)
        assert (a.rep, a.nx) == (PreciseNum.of(0), LIMITED) and str(a) == "L"
        assert a == pure(LIMITED) and hash(a) == hash(pure(LIMITED)) and len({a, pure(LIMITED)}) == 1
        assert a <= pure(LIMITED) <= a and not a < pure(LIMITED) and not a > pure(LIMITED)
        assert ExternalNum(rp(2, 5), FULL).rep.is_zero() and ExternalNum(3) == 3
        # negation keeps the canonical form without rebuilding it
        x = ExternalNum(rp(1) + RhoPoly.constant(3) + rp(-1), LIMITED)
        assert (-x).rep == -PreciseNum.of(rp(1)) and (-x).nx == LIMITED

    @pytest.mark.parametrize("rep, nx, name", [(1, 2, "int"), (1, F(0), "Fraction"), (1, None, "NoneType"),
                                               ("1", LIMITED, "str"), (1.5, NX_ZERO, "float"), (1.5, LIMITED, "float")])
    def test_the_constructor_rejects_what_is_not_a_number_or_neutrix(self, rep, nx, name):
        for make in (ExternalNum, canonicalize):
            with pytest.raises(TypeError, match=name):
                make(rep, nx)


class TestHashing:
    def test_equal_values_hash_equal(self):
        s = Sampler(GeneratorConfig(seed=5), "hash")
        r = PreciseNum.of(RhoPoly([(1, 1), (0, 1)]))
        for _ in range(200):
            y = s.precise()
            pairs = [((y * r) / r, y), (PreciseNum.of(y.num), y.num)]
            x = s.external()
            pairs.append((canonicalize(s.representative_of(x), x.nx), x))
            for a, b in pairs:
                assert a == b and hash(a) == hash(b), (a, b)

    def test_constants_hash_like_numbers(self):
        assert hash(PreciseNum.of(3)) == hash(3)
        assert hash(PreciseNum.of(F(1, 2))) == hash(F(1, 2))
        assert hash(PreciseNum.of(0)) == hash(RhoPoly()) == hash(0)
        assert hash(RhoPoly.constant(2)) == hash(PreciseNum.of(2))
        assert len({PreciseNum.of(2), 2, F(4, 2)}) == 1
        # equality across the numeric types is transitive, in any set order
        assert RhoPoly.constant(2) == 2 and RhoPoly.constant(F(1, 2)) == F(1, 2) and RhoPoly() == 0
        assert RhoPoly.constant(2) != 3 and RhoPoly.rho_power(1) != 1
        assert len({RhoPoly.constant(2), 2, PreciseNum.of(2)}) == 1
        assert len({PreciseNum.of(2), RhoPoly.constant(2), 2}) == 1
        # precise external numbers join them, in both directions and hashes
        two = canonicalize(2)
        for n in (2, F(2), PreciseNum.of(2), RhoPoly.constant(2)):
            assert two == n and n == two and hash(two) == hash(n)
        assert canonicalize(1) == PreciseNum.of(1) and canonicalize(2) <= 2 and canonicalize(2) >= 2
        values = [two, 2, PreciseNum.of(2), RhoPoly.constant(2), F(2)]
        assert len(set(values)) == 1 and len(set(reversed(values))) == 1
        # a nonzero neutrix equals no number, and a magnitude is not its Neutrix
        assert canonicalize(2, INFINITESIMALS) != 2 and 2 != canonicalize(2, INFINITESIMALS)
        assert pure(LIMITED) != LIMITED and LIMITED != pure(LIMITED)
        with pytest.raises(TypeError):
            pure(LIMITED) <= LIMITED  # a Neutrix is no operand: it enters as pure(LIMITED)

    def test_values_and_halflines_are_hashable(self):
        one = canonicalize(1)
        assert hash(lower(HalflineKind.CLOSED, one)) == hash(lower(HalflineKind.CLOSED, canonicalize(1)))
        assert len({one, canonicalize(F(2, 2)), canonicalize(1, LIMITED), canonicalize(3, LIMITED)}) == 2


class TestAddSub:
    def test_neutrix_max_then_absorb(self):
        a = canonicalize(rp(1), LIMITED)
        b = canonicalize(3, INFINITESIMALS)
        assert ext_add(a, b) == canonicalize(rp(1), LIMITED)

    def test_zero_identity(self):
        a = canonicalize(rp(2) + RhoPoly.constant(1), open_cut(-1))
        assert ext_add(a, EXT_ZERO) == a

    def test_self_subtraction_leaves_magnitude(self):
        a = canonicalize(5, INFINITESIMALS)
        assert a - a == pure(INFINITESIMALS)

    def test_neg_keeps_neutrix(self):
        a = canonicalize(rp(1), LIMITED)
        assert ext_neg(a).rep == -a.rep and ext_neg(a).nx == LIMITED

    def test_minkowski_soundness_add(self):
        a = canonicalize(rp(1), LIMITED)
        b = canonicalize(3, INFINITESIMALS)
        s = ext_add(a, b)
        for x in members(a):
            for y in members(b):
                assert ext_member(x + y, s)


class TestMul:
    def test_one_plus_o_squared(self):
        a = canonicalize(1, INFINITESIMALS)
        sq = ext_mul(a, a)
        assert sq == a
        for x in members(a):
            for y in members(a):
                assert ext_member(x * y, sq)

    def test_unity_identity(self):
        a = canonicalize(rp(2) + RhoPoly.constant(-4), closed_cut(1))
        assert ext_mul(a, EXT_ONE) == a

    def test_rho_plus_limited_squared(self):
        a = canonicalize(rp(1), LIMITED)
        assert ext_mul(a, a) == canonicalize(rp(2), closed_cut(1))

    def test_zero_annihilates_even_full(self):
        assert ext_mul(EXT_ZERO, pure(FULL)) == EXT_ZERO
        assert str(ExternalNum(0) * pure(FULL)) == "0"
        s = Sampler(GeneratorConfig(seed=37), "zero-product")
        for _ in range(300):
            x = s.external()
            assert ExternalNum(0) * x == 0, str(x)
            assert x * 0 == 0, str(x)

    def test_magnitude_of_product(self):
        a = canonicalize(rp(1), LIMITED)
        b = canonicalize(2, INFINITESIMALS)
        prod = ext_mul(a, b)
        expected = nx_add(
            nx_add(nx_scale(a.rep, b.nx), nx_scale(b.rep, a.nx)),
            nx_scale(PreciseNum.of(1), INFINITESIMALS),
        )
        assert prod.nx == expected == open_cut(1)


class TestInverse:
    def test_rho_plus_limited(self):
        a = canonicalize(rp(1), LIMITED)
        inv = ext_inv(a)
        assert inv == canonicalize(rp(-1), closed_cut(-2))
        # multiply-back oracle
        assert ext_mul(a, inv) == unity(a) == canonicalize(1, closed_cut(-1))

    def test_precise(self):
        assert ext_inv(canonicalize(2)) == canonicalize(F(1, 2))

    def test_pure_neutrix_rejected(self):
        with pytest.raises(NotZerolessError):
            ext_inv(pure(LIMITED))
        with pytest.raises(NotZerolessError):
            EXT_ONE / EXT_ZERO

    def test_inverse_contract_on_ratio_rep(self):
        b = canonicalize(PreciseNum(ONE_POLY, RhoPoly([(1, 1), (0, -1)])))
        assert ext_mul(b, ext_inv(b)) == EXT_ONE


class TestCompare:
    def test_zero_below_infinitesimals(self):
        assert ext_compare(EXT_ZERO, pure(INFINITESIMALS)) is Ordering.LT

    def test_reflexive(self):
        a = canonicalize(rp(1) + RhoPoly.constant(2), INFINITESIMALS)
        assert ext_compare(a, a) is Ordering.EQ

    def test_inclusion_order(self):
        a = canonicalize(1, INFINITESIMALS)
        b = canonicalize(1, LIMITED)
        assert ext_compare(a, b) is Ordering.LT
        # representative-sampling oracle: every member of a is <= some member of b
        top_of_b = b.rep + PreciseNum.of(rp(0, 3))
        for x in members(a):
            assert x <= top_of_b

    def test_sign_order(self):
        assert canonicalize(3, INFINITESIMALS) < canonicalize(4, INFINITESIMALS)
        assert canonicalize(rp(1)) > canonicalize(10**9, LIMITED)

    def test_full_is_top(self):
        m = pure(FULL)
        assert canonicalize(rp(5), closed_cut(2)) < m
        assert ext_compare(m, m) is Ordering.EQ

    def test_six_operators_agree_with_ext_compare(self):
        pairs, nx_pairs = SIX_OPERATOR_PAIRS
        assert {str(a.nx)[-1] for a, _ in pairs[::9]} == set("0oLM")
        assert {ext_compare(as_external(a), as_external(b)) for a, b in pairs} == set(Ordering)
        for a, b in pairs:
            cmp = ext_compare(as_external(a), as_external(b))
            equal = cmp is Ordering.EQ
            got = (a < b, a <= b, a > b, a >= b, a == b, a != b)
            want = (cmp is Ordering.LT, cmp is not Ordering.GT, cmp is Ordering.GT,
                    cmp is not Ordering.LT, equal, not equal)
            assert got == want, (str(a), str(b))
            if equal:
                assert hash(a) == hash(b) and len({a, b}) == 1, (str(a), str(b))
        # a Neutrix operand has no order, and equals no external number
        for a, b in nx_pairs:
            for op in ORDER_OPERATORS:
                with pytest.raises(TypeError):
                    op(a, b)
            assert (a == b, a != b) == (False, True), (str(a), str(b))


def _six_operator_pairs():
    """Seeded operand pairs: all four neutrix kinds, equal values rebuilt from
    another member, and number and PreciseNum operands on either side; beside
    them, from the same draws, bare Neutrix operands on either side.  After
    them come values built as ``ExternalNum(rep, nx)`` from members other than
    the representative, against the drawn values."""
    s = Sampler(GeneratorConfig(seed=19), "six-operators")
    pairs, nx_pairs = [], []
    built = [(ExternalNum(PreciseNum.of(1), LIMITED), pure(LIMITED))]
    for _ in range(100):
        x, y, c = s.external(), s.external(), s.coefficient()
        rebuilt = canonicalize(s.representative_of(x), x.nx)
        pairs += [(x, y), (rebuilt, x), (x, c), (c, x), (canonicalize(c), c),
                  (c.numerator, canonicalize(c.numerator)),
                  (x.rep, y), (x.rep, x), (PreciseNum.of(c), canonicalize(c))]
        nx_pairs += [(x, y.nx), (y.nx, x), (pure(x.nx), x.nx)]
        for member in members(x)[1:3]:
            built += [(ExternalNum(member, x.nx), x), (y, ExternalNum(member, x.nx))]
    return pairs + built, nx_pairs


SIX_OPERATOR_PAIRS = _six_operator_pairs()
ORDER_OPERATORS = (operator.lt, operator.le, operator.gt, operator.ge)
ARITHMETIC_OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


class TestOperandContract:
    """``RhoPoly``, ``PreciseNum`` and ``ExternalNum`` share one operand set: a
    neutrix enters arithmetic and order only as ``pure(nx)``, never bare."""

    VALUES = [RhoPoly.rho_power(1, 3), RhoPoly(), PreciseNum.of(RHO) / 2, PreciseNum(ONE_POLY, RHO + ONE_POLY),
              EXT_ZERO, canonicalize(RHO), canonicalize(RHO, LIMITED), pure(INFINITESIMALS), pure(FULL)]

    @pytest.mark.parametrize("value", VALUES, ids=repr)
    @pytest.mark.parametrize("nx", [NX_ZERO, INFINITESIMALS, LIMITED, FULL], ids=str)
    def test_a_neutrix_operand_raises_type_error_and_is_unequal(self, value, nx):
        for op in ARITHMETIC_OPERATORS + ORDER_OPERATORS:
            with pytest.raises(TypeError):
                op(value, nx)
            with pytest.raises(TypeError):
                op(nx, value)
        assert not value == nx and not nx == value
        assert value != nx and nx != value

    def test_the_order_is_total_on_the_seeded_pairs(self):
        pairs, _ = SIX_OPERATOR_PAIRS
        # and the PreciseNum order, on the representatives of the drawn and rebuilt pairs
        pairs = pairs + [(a.rep, b.rep) for a, b in pairs[::9] + pairs[1::9]]
        for a, b in pairs:
            assert (a <= b) == (a < b or a == b), (str(a), str(b))
            assert (a >= b) == (a > b or a == b), (str(a), str(b))
            assert (a < b) + (a == b) + (a > b) == 1, (str(a), str(b))

    def test_external_num_derives_le_gt_ge(self):
        own = vars(ExternalNum)
        assert "__lt__" in own and "__eq__" in own
        for name in ("__le__", "__gt__", "__ge__"):
            assert getattr(ExternalNum, name).__module__ == "functools", name


class TestOperators:
    def test_the_named_operations_are_the_operators(self):
        assert ext_add is ExternalNum.__add__
        assert ext_mul is ExternalNum.__mul__
        assert ext_neg is ExternalNum.__neg__

    def test_operators_match_the_named_operations(self):
        def outcome(op, *args):
            try:
                return op(*args)
            except NotZerolessError as exc:
                return f"NotZerolessError: {exc}"

        s = Sampler(GeneratorConfig(seed=23), "operators")
        raised = 0
        for i in range(100):
            x = s.zeroless() if i % 2 else s.external()
            y = s.zeroless() if i % 3 else s.external()
            assert -x == ext_neg(x)
            assert x - y == x + -y
            assert 3 - x == canonicalize(3) - x
            assert x * y == ext_mul(x, y)
            # a PreciseNum on the left hands the operation to the ExternalNum
            p = x.rep
            assert p + y == ext_add(canonicalize(p), y)
            assert p - y == canonicalize(p) - y
            assert p * y == ext_mul(canonicalize(p), y)
            # the quotient is the product with the inverse
            want = outcome(lambda a, b: a * ext_inv(b), x, y)
            assert outcome(operator.truediv, x, y) == want
            raised += isinstance(want, str)
            for args in ((1, x), (p, y)):
                want = outcome(operator.truediv, *map(as_external, args))
                assert outcome(operator.truediv, *args) == want
                raised += isinstance(want, str)
        assert 0 < raised < 300


class TestSetPredicates:
    def test_member(self):
        assert ext_member(3, pure(LIMITED))
        assert not ext_member(rp(1), pure(LIMITED))
        assert ext_member(RhoPoly.constant(1) + rp(-1), canonicalize(1, INFINITESIMALS))

    def test_disjoint_and_subset(self):
        a = canonicalize(1, INFINITESIMALS)
        b = canonicalize(1, LIMITED)
        c = canonicalize(rp(1), INFINITESIMALS)
        assert ext_subset(a, b) and not ext_subset(b, a)
        assert ext_disjoint(a, c)
        assert not ext_disjoint(a, b)

    def test_subset_is_reflexive_on_seeded_values(self):
        s = Sampler(GeneratorConfig(seed=31), "subset")
        for _ in range(200):
            x = s.external()
            for y in (x, canonicalize(s.representative_of(x), x.nx)):
                assert ext_subset(x, y) and ext_subset(y, x), (str(x), str(y))
                assert not ext_disjoint(x, y) and not ext_disjoint(y, x), (str(x), str(y))

    def test_trichotomy_samples(self):
        pairs = [
            (canonicalize(1, INFINITESIMALS), canonicalize(1, LIMITED)),
            (canonicalize(0), canonicalize(2)),
            (canonicalize(5, INFINITESIMALS), canonicalize(-5, INFINITESIMALS)),
            (pure(LIMITED), canonicalize(rp(1), LIMITED)),
        ]
        for a, b in pairs:
            relations = [ext_disjoint(a, b), ext_subset(a, b), ext_subset(b, a)]
            assert any(relations)
            if a != b:
                assert sum(relations) == 1


class TestClassifyUnity:
    def test_neutrix_part(self):
        assert canonicalize(3, INFINITESIMALS).nx == INFINITESIMALS
        assert magnitude(canonicalize(3, INFINITESIMALS)) == pure(INFINITESIMALS)

    def test_unity_of_rho_plus_limited(self):
        assert unity(canonicalize(rp(1), LIMITED)) == canonicalize(1, closed_cut(-1))

    def test_classify(self):
        assert classify(canonicalize(5)) is Classification.PRECISE
        assert classify(pure(LIMITED)) is Classification.PURE_NEUTRIX
        assert classify(pure(FULL)) is Classification.PURE_NEUTRIX
        assert classify(canonicalize(1, INFINITESIMALS)) is Classification.ZEROLESS_NONPRECISE

    def test_zeroless_predicate(self):
        assert is_zeroless(canonicalize(5))
        assert not is_zeroless(EXT_ZERO)
        assert not is_zeroless(pure(FULL))
        assert is_zeroless(canonicalize(rp(1), LIMITED))


class TestShadow:
    def test_absorbs_infinitesimal_tail(self):
        x = canonicalize(RhoPoly.constant(3) + rp(-1))
        assert shadow(x) == canonicalize(3, INFINITESIMALS)

    def test_zero(self):
        assert shadow(EXT_ZERO) == pure(INFINITESIMALS)

    def test_unlimited_rejected(self):
        with pytest.raises(NotLimitedError):
            shadow(canonicalize(rp(1)))
        with pytest.raises(NotLimitedError):
            shadow(pure(FULL))

    def test_is_limited(self):
        assert is_limited(canonicalize(F(7, 2), LIMITED))
        assert not is_limited(canonicalize(rp(F(1, 2))))
        assert not is_limited(canonicalize(0, closed_cut(1)))


class TestAbsAndRender:
    def test_abs(self):
        a = canonicalize(-3, INFINITESIMALS)
        assert abs(a) == canonicalize(3, INFINITESIMALS)
        assert abs(pure(LIMITED)) == pure(LIMITED)

    def test_render(self):
        assert render_external(canonicalize(rp(1), LIMITED)) == "rho + L"
        assert render_external(pure(INFINITESIMALS)) == "o"
        assert render_external(canonicalize(5)) == "5"
        assert render_external(EXT_ZERO) == "0"

    def test_as_external_coercions(self):
        assert as_external(3) == canonicalize(3)
        with pytest.raises(TypeError):
            as_external(LIMITED)  # a neutrix enters only as pure(LIMITED)
        assert as_external(RHO) == canonicalize(rp(1))


class TestAxiomShapedIdentities:
    def test_distributivity_with_magnitude_correction(self):
        x = canonicalize(1, INFINITESIMALS)
        y = canonicalize(1)
        z = canonicalize(-1)
        lhs = ext_add(ext_mul(x, y), ext_mul(x, z))
        naive = ext_mul(x, ext_add(y, z))
        corrected = ext_add(
            ext_add(naive, ext_mul(magnitude(x), y)), ext_mul(magnitude(x), z)
        )
        assert lhs == corrected == pure(INFINITESIMALS)
        assert naive == EXT_ZERO and naive != lhs

    def test_unity_is_multiplicative(self):
        a = canonicalize(rp(1), LIMITED)
        b = canonicalize(1, INFINITESIMALS)
        assert unity(ext_mul(a, b)) == ext_mul(unity(a), unity(b))
