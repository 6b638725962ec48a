"""Tests for the magnitude lattice.

Derived expectations are checked against the membership oracle: a neutrix is
the set of precise elements its degree test admits, so order and arithmetic
claims reduce to sampled membership.
"""

import copy
import itertools
import math
import operator
import pickle
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as F

import pytest

from solidus.errors import NotAboveUnityError, NotIdempotentError
from solidus.external import ExternalNum
from solidus.field import NEG_INFINITY, Ordering, PreciseNum, RhoPoly, series_expand
from solidus.neutrix import (
    FULL,
    IDEMPOTENTS,
    INFINITESIMALS,
    LIMITED,
    NX_ZERO,
    Neutrix,
    _cut,
    closed_cut,
    decompose,
    is_ideal_of,
    is_idempotent,
    maximal_ideal,
    nx_add,
    nx_contains,
    nx_mul,
    nx_scale,
    open_cut,
    render_neutrix,
)

rp = RhoPoly.rho_power


def members_near(nx: Neutrix):
    """Sample precise elements straddling the threshold of a scaled cut."""
    q = nx.q
    return [
        (rp(q - 1), True),
        (rp(q - F(1, 2)), True),
        (rp(q), nx == closed_cut(q)),
        (rp(q + F(1, 2)), False),
        (rp(q + 1), False),
    ]


class TestCompare:
    def test_infinitesimals_below_limited(self):
        assert INFINITESIMALS < LIMITED

    def test_scaled_below(self):
        # {deg <= -1} is a proper subset of {deg < 0}: check via membership.
        assert closed_cut(-1) < INFINITESIMALS
        witness = rp(F(-1, 2))
        assert nx_contains(INFINITESIMALS, witness)
        assert not nx_contains(closed_cut(-1), witness)

    def test_reflexive(self):
        for a in (NX_ZERO, open_cut(2), closed_cut(-3), FULL):
            assert a == a and not a < a

    def test_total_chain(self):
        chain = [NX_ZERO, closed_cut(-1), open_cut(0), closed_cut(0), open_cut(2), FULL]
        for i, a in enumerate(chain):
            for b in chain[i + 1 :]:
                assert a < b
                assert b > a

    def test_order_is_inclusion(self):
        pairs = [
            (open_cut(1), closed_cut(1)),
            (closed_cut(0), open_cut(1)),
            (open_cut(-2), closed_cut(-1)),
        ]
        for a, b in pairs:
            assert a < b
            for p, in_a in members_near(a):
                if in_a:
                    assert nx_contains(b, p)


class TestAddMul:
    def test_add_is_max(self):
        assert nx_add(INFINITESIMALS, LIMITED) == LIMITED
        assert nx_add(closed_cut(2), open_cut(3)) == open_cut(3)

    def test_add_zero_identity(self):
        for a in (NX_ZERO, open_cut(1), LIMITED, FULL):
            assert nx_add(a, NX_ZERO) == a

    def test_idempotent_products(self):
        assert nx_mul(INFINITESIMALS, LIMITED) == INFINITESIMALS
        assert nx_mul(LIMITED, LIMITED) == LIMITED
        assert nx_mul(INFINITESIMALS, INFINITESIMALS) == INFINITESIMALS

    def test_scaled_product_via_decomposition(self):
        # closed_cut(2) * open_cut(-1): decompose, multiply idempotents, rescale.
        a, b = closed_cut(2), open_cut(-1)
        pa, ia = decompose(a)
        pb, ib = decompose(b)
        recomposed = nx_scale(pa * pb, nx_mul(ia, ib))
        assert nx_mul(a, b) == recomposed == open_cut(1)

    def test_zero_annihilates_and_full_absorbs(self):
        for a in (open_cut(5), closed_cut(-5), LIMITED):
            assert nx_mul(a, NX_ZERO) == NX_ZERO
            assert nx_mul(a, FULL) == FULL
        assert nx_mul(FULL, NX_ZERO) == NX_ZERO

    def test_commutative(self):
        samples = [NX_ZERO, open_cut(-1), closed_cut(2), LIMITED, FULL]
        for a in samples:
            for b in samples:
                assert nx_mul(a, b) == nx_mul(b, a)
                assert nx_add(a, b) == nx_add(b, a)


class TestScale:
    def test_pure_power(self):
        assert nx_scale(rp(3), LIMITED) == closed_cut(3)

    def test_coefficients_absorbed(self):
        assert nx_scale(PreciseNum.of(5), INFINITESIMALS) == INFINITESIMALS
        for p, expected in members_near(INFINITESIMALS):
            assert nx_contains(INFINITESIMALS, PreciseNum.of(p) * 5) == expected

    def test_degree_shift(self):
        two_over_rho = PreciseNum.of(2) / PreciseNum.of(rp(1))
        assert nx_scale(two_over_rho, LIMITED) == closed_cut(-1)

    def test_zero_scalar_gives_zero(self):
        # the paper's 0A = {0x : x in A} = {0}, for every A
        for a in (NX_ZERO, INFINITESIMALS, LIMITED, FULL, nx_scale(rp(3), INFINITESIMALS)):
            assert nx_scale(0, a) == NX_ZERO

    def test_zero_and_full_fixed(self):
        assert nx_scale(rp(7), NX_ZERO) == NX_ZERO
        assert nx_scale(rp(7), FULL) == FULL


class TestContains:
    def test_constants_are_limited(self):
        assert nx_contains(LIMITED, 10**6)

    def test_one_not_infinitesimal(self):
        assert not nx_contains(INFINITESIMALS, 1)

    def test_boundary_strictness(self):
        assert not nx_contains(open_cut(2), rp(2))
        assert nx_contains(closed_cut(2), rp(2))

    def test_group_and_convexity(self):
        inside = [rp(-1), rp(F(-1, 2), 3)]
        for a in inside:
            for b in inside:
                assert nx_contains(INFINITESIMALS, PreciseNum.of(a) + PreciseNum.of(b))
            assert nx_contains(INFINITESIMALS, -PreciseNum.of(a))
        # convex: 0 <= a <= b and b inside imply a inside
        assert nx_contains(INFINITESIMALS, rp(-2))


class TestIdempotents:
    def test_exactly_four(self):
        assert is_idempotent(LIMITED)
        assert is_idempotent(NX_ZERO)
        assert is_idempotent(INFINITESIMALS)
        assert is_idempotent(FULL)
        assert not is_idempotent(closed_cut(1))
        assert not is_idempotent(open_cut(F(-1, 2)))

    def test_maximal_ideal_table(self):
        assert maximal_ideal(LIMITED) == INFINITESIMALS
        assert maximal_ideal(FULL) == NX_ZERO

    def test_maximal_ideal_rejections(self):
        with pytest.raises(NotIdempotentError):
            maximal_ideal(closed_cut(1))
        with pytest.raises(NotAboveUnityError):
            maximal_ideal(INFINITESIMALS)
        with pytest.raises(NotAboveUnityError):
            maximal_ideal(NX_ZERO)

    def test_ideal_absorption(self):
        for j in (LIMITED, FULL):
            i = maximal_ideal(j)
            assert nx_mul(i, j) == i


class TestDecompose:
    def test_canonical_choices(self):
        p, i = decompose(closed_cut(3))
        assert p == PreciseNum.of(rp(3)) and i == LIMITED
        p, i = decompose(INFINITESIMALS)
        assert p == 1 and i == INFINITESIMALS
        p, i = decompose(NX_ZERO)
        assert p == 1 and i == NX_ZERO
        p, i = decompose(FULL)
        assert p == 1 and i == FULL

    def test_round_trip(self):
        for a in [open_cut(F(1, 2)), closed_cut(-2), LIMITED, NX_ZERO, FULL]:
            p, i = decompose(a)
            assert is_idempotent(i)
            if a in (NX_ZERO, FULL):
                assert i == a
            else:
                assert nx_scale(p, i) == a

    def test_idempotent_part_unique_across_scalings(self):
        a = open_cut(F(1, 2))
        _, i = decompose(a)
        for scalar in [rp(2), PreciseNum.of(7), rp(F(-3, 2), 4)]:
            assert decompose(nx_scale(scalar, a))[1] == i


class TestIdeals:
    def test_infinitesimals_ideal_of_limited(self):
        assert is_ideal_of(INFINITESIMALS, LIMITED)
        assert is_ideal_of(NX_ZERO, LIMITED)
        assert is_ideal_of(LIMITED, LIMITED)

    def test_sub_infinitesimal_magnitudes_are_ideals(self):
        # Any scalar below LIMITED has degree <= 0 and cannot push these up.
        assert is_ideal_of(open_cut(-1), LIMITED)
        assert is_ideal_of(closed_cut(-2), LIMITED)

    def test_non_ideals_of_limited(self):
        assert not is_ideal_of(closed_cut(1), LIMITED)
        assert not is_ideal_of(FULL, LIMITED)

    def test_ideals_of_full(self):
        assert is_ideal_of(NX_ZERO, FULL)
        assert is_ideal_of(FULL, FULL)
        assert not is_ideal_of(INFINITESIMALS, FULL)
        assert not is_ideal_of(open_cut(-3), FULL)

    def test_definition_oracle(self):
        # eq <= e for every sampled precise 0 <= p < j, and e <= j.
        scalars_below_limited = [PreciseNum.of(x) for x in (rp(0), rp(F(-1, 2)), rp(-1, 3))]
        scalars_below_full = scalars_below_limited + [PreciseNum.of(rp(2, 5))]
        for e in [NX_ZERO, open_cut(-1), closed_cut(-2), INFINITESIMALS, LIMITED, closed_cut(1), FULL]:
            for j, scalars in ((LIMITED, scalars_below_limited), (FULL, scalars_below_full)):
                definition = e <= j and all(
                    nx_scale(p, e) <= e
                    for p in scalars
                    if e not in (NX_ZERO, FULL)
                )
                assert is_ideal_of(e, j) == definition

    def test_rejections(self):
        with pytest.raises(NotIdempotentError):
            is_ideal_of(NX_ZERO, closed_cut(1))
        with pytest.raises(NotAboveUnityError):
            is_ideal_of(NX_ZERO, INFINITESIMALS)


class TestRendering:
    @pytest.mark.parametrize(
        "nx,text",
        [
            (NX_ZERO, "0"),
            (INFINITESIMALS, "o"),
            (LIMITED, "L"),
            (FULL, "M"),
            (open_cut(2), "rho^2*o"),
            (closed_cut(F(-1, 2)), "rho^(-1/2)*L"),
        ],
    )
    def test_text_forms(self, nx, text):
        assert render_neutrix(nx) == text

    def test_idempotent_tuple(self):
        assert set(IDEMPOTENTS) == {NX_ZERO, INFINITESIMALS, LIMITED, FULL}


# --- reference: the four-shape algebra that the (q, closed) cut replaced ------


class RefKind(Enum):
    ZERO = "zero"
    OPEN_CUT = "open_cut"
    CLOSED_CUT = "closed_cut"
    FULL = "full"


@dataclass(frozen=True)
class RefNeutrix:
    kind: RefKind
    q: F = F(0)

    def sort_key(self) -> tuple:
        if self.kind is RefKind.ZERO:
            return (0, F(0), 0)
        if self.kind is RefKind.OPEN_CUT:
            return (1, self.q, 0)
        if self.kind is RefKind.CLOSED_CUT:
            return (1, self.q, 1)
        return (2, F(0), 0)

    def new(self) -> Neutrix:
        if self.kind is RefKind.ZERO:
            return NX_ZERO
        if self.kind is RefKind.FULL:
            return FULL
        return closed_cut(self.q) if self.kind is RefKind.CLOSED_CUT else open_cut(self.q)


REF_ZERO, REF_FULL = RefNeutrix(RefKind.ZERO), RefNeutrix(RefKind.FULL)
REF_INFINITESIMALS = RefNeutrix(RefKind.OPEN_CUT, F(0))
REF_LIMITED = RefNeutrix(RefKind.CLOSED_CUT, F(0))


def ref_mul(a: RefNeutrix, b: RefNeutrix) -> RefNeutrix:
    if a.kind is RefKind.ZERO or b.kind is RefKind.ZERO:
        return REF_ZERO
    if a.kind is RefKind.FULL or b.kind is RefKind.FULL:
        return REF_FULL
    if a.kind is RefKind.CLOSED_CUT and b.kind is RefKind.CLOSED_CUT:
        return RefNeutrix(RefKind.CLOSED_CUT, a.q + b.q)
    return RefNeutrix(RefKind.OPEN_CUT, a.q + b.q)


def ref_scale(p, a: RefNeutrix) -> RefNeutrix:
    p = PreciseNum.of(p)
    if a.kind in (RefKind.ZERO, RefKind.FULL):
        return a
    return RefNeutrix(a.kind, a.q + p.degree())


def ref_contains(a: RefNeutrix, p) -> bool:
    p = PreciseNum.of(p)
    if a.kind is RefKind.ZERO:
        return p.is_zero()
    if a.kind is RefKind.FULL:
        return True
    d = p.degree()
    return d < a.q if a.kind is RefKind.OPEN_CUT else d <= a.q


def ref_decompose(a: RefNeutrix) -> tuple[PreciseNum, RefNeutrix]:
    if a.kind is RefKind.OPEN_CUT:
        return PreciseNum.of(rp(a.q)), REF_INFINITESIMALS
    if a.kind is RefKind.CLOSED_CUT:
        return PreciseNum.of(rp(a.q)), REF_LIMITED
    return PreciseNum.of(1), a


def ref_render(a: RefNeutrix) -> str:
    if a.kind is RefKind.ZERO:
        return "0"
    if a.kind is RefKind.FULL:
        return "M"
    letter = "o" if a.kind is RefKind.OPEN_CUT else "L"
    if a.q == 0:
        return letter
    # an integer exponent above 1 prints bare, any other in parentheses, and rho^1 as rho
    power = "rho" if a.q == 1 else f"rho^{a.q}" if a.q.denominator == 1 and a.q > 0 else f"rho^({a.q})"
    return f"{power}*{letter}"


GRID = [REF_ZERO, REF_FULL] + [
    RefNeutrix(kind, F(k, 2)) for k in range(-4, 5) for kind in (RefKind.OPEN_CUT, RefKind.CLOSED_CUT)
]
SCALARS = [
    PreciseNum.of(7),
    PreciseNum.of(rp(2)),
    PreciseNum.of(rp(F(-3, 2), -4)),
    (PreciseNum.of(rp(1)) + 1) / (PreciseNum.of(rp(F(1, 2))) - 2),
]
PROBES = [PreciseNum.of(0), PreciseNum.of(3)] + [
    PreciseNum.of(rp(F(k, 2), c)) for k in range(-6, 7) for c in (1, -5)
] + [(PreciseNum.of(rp(1)) + 1) / (PreciseNum.of(rp(2)) - 3)]


class TestAgainstFourShapeReference:
    def test_order_equality_and_hash(self):
        for a, b in itertools.product(GRID, repeat=2):
            na, nb = a.new(), b.new()
            ka, kb = a.sort_key(), b.sort_key()
            expected = Ordering.EQ if ka == kb else Ordering.LT if ka < kb else Ordering.GT
            assert (na > nb) == (expected is Ordering.GT), (a, b)
            assert (na < nb) == (expected is Ordering.LT)
            assert (na == nb) == (expected is Ordering.EQ)
            if na == nb:
                assert hash(na) == hash(nb)
            assert nx_add(na, nb) == (b if ka < kb else a).new()

    def test_six_comparisons_follow_the_tuple_order(self):
        for a, b in itertools.product(GRID, repeat=2):
            na, nb = a.new(), b.new()
            ta, tb = (na.q, na.closed), (nb.q, nb.closed)
            got = (na == nb, na != nb, na < nb, na <= nb, na > nb, na >= nb)
            assert got == (ta == tb, ta != tb, ta < tb, ta <= tb, ta > tb, ta >= tb), (a, b)

    def test_comparison_with_other_types(self):
        for a in GRID:
            na = a.new()
            assert not (na == 0) and na != 0 and na != (na.q, na.closed)
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(TypeError):
                    op(na, 0)
                with pytest.raises(TypeError):
                    op(0, na)

    def test_mul(self):
        for a, b in itertools.product(GRID, repeat=2):
            assert nx_mul(a.new(), b.new()) == ref_mul(a, b).new(), (a, b)

    def test_scale(self):
        for a, p in itertools.product(GRID, SCALARS):
            assert nx_scale(p, a.new()) == ref_scale(p, a).new(), (a, p)

    def test_contains(self):
        for a, p in itertools.product(GRID, PROBES):
            assert nx_contains(a.new(), p) == ref_contains(a, p), (a, p)

    def test_decompose_and_render(self):
        for a in GRID:
            p, i = decompose(a.new())
            ref_p, ref_i = ref_decompose(a)
            assert p == ref_p and i == ref_i.new()
            assert render_neutrix(a.new()) == str(a.new()) == ref_render(a)

    def test_extra_spellings_rejected(self):
        with pytest.raises(ValueError):
            Neutrix(NEG_INFINITY, False)  # the empty set
        with pytest.raises(ValueError):
            Neutrix(math.inf, True)  # a second spelling of FULL
        assert Neutrix(NEG_INFINITY, True) == NX_ZERO
        assert Neutrix(math.inf, False) == FULL


# --- reference: the Fraction thresholds that the int pairs replaced -----------


def frac_scale(p, a: Neutrix) -> Neutrix:
    p = PreciseNum.of(p)
    if p.is_zero():
        return NX_ZERO
    return a if a in (NX_ZERO, FULL) else Neutrix(a.q + p.degree(), a.closed)


def frac_mul(a: Neutrix, b: Neutrix) -> Neutrix:
    if NX_ZERO in (a, b):
        return NX_ZERO
    if FULL in (a, b):
        return FULL
    return Neutrix(a.q + b.q, a.closed and b.closed)


def frac_contains(a: Neutrix, p) -> bool:
    p = PreciseNum.of(p)
    if a in (NX_ZERO, FULL):
        return a == FULL or p.is_zero()
    return p.degree() <= a.q if a.closed else p.degree() < a.q


def frac_canonical_rep(rep, nx: Neutrix) -> PreciseNum:
    if nx == NX_ZERO:
        return PreciseNum.of(rep)
    if nx == FULL:
        return PreciseNum.of(0)
    return PreciseNum.of(series_expand(rep, nx.q, strict=nx.closed))


# exponent grids mixed within one scalar, denominators up to 400
DENOMINATORS = (1, 2, 3, 7, 8, 399, 400)


def _seeded_poly(rng: random.Random) -> RhoPoly:
    terms = []
    for _ in range(rng.randint(1, 4)):
        d = rng.choice(DENOMINATORS)
        coeff = F(rng.choice((-5, -1, 1, 2, 3)), rng.choice((1, 2, 7)))
        terms.append((F(rng.randint(-3 * d, 3 * d), d), coeff))
    return RhoPoly(terms)


def _seeded_scalars(seed: int = 15, count: int = 60) -> list[PreciseNum]:
    """Polynomials and ratios; a denominator's gap is at least 1/2, so the
    expansions down to the cuts stay short."""
    rng = random.Random(seed)
    scalars = []
    for _ in range(count):
        p = PreciseNum.of(_seeded_poly(rng))
        if rng.random() < 0.5:
            top = F(rng.randint(-400, 400), 400)
            gap = rng.choice((F(1, 2), F(1), F(7, 3), F(401, 400)))
            p = p / PreciseNum.of(RhoPoly([(top, rng.choice((1, 3))), (top - gap, rng.choice((-2, 1, 5)))]))
        scalars.append(p)
    return scalars


INT_SCALARS = SCALARS + [PreciseNum.of(0)] + _seeded_scalars()
CUTS = [a.new() for a in GRID]
SCALED_CUTS = CUTS + [nx_scale(p, a) for a, p in zip(CUTS * 3, INT_SCALARS)]


class TestIntThresholdsAgainstFractions:
    def test_ratios_and_fine_grids_drawn(self):
        assert len(CUTS) == 20
        assert sum(not p.is_polynomial() for p in INT_SCALARS) >= 20
        assert max(p.num.grid for p in INT_SCALARS) >= 400
        assert any(c._key[2] >= 400 for c in SCALED_CUTS)

    def test_scale(self):
        for a, p in itertools.product(SCALED_CUTS, INT_SCALARS):
            got, want = nx_scale(p, a), frac_scale(p, a)
            assert got == want and got._key == want._key, (a, p)

    def test_mul(self):
        for a, b in itertools.product(SCALED_CUTS, repeat=2):
            got, want = nx_mul(a, b), frac_mul(a, b)
            assert got == want and got._key == want._key, (a, b)

    def test_contains(self):
        probes = INT_SCALARS + [p + q for p, q in zip(INT_SCALARS, INT_SCALARS[1:])]
        for a, p in itertools.product(SCALED_CUTS, probes):
            assert nx_contains(a, p) == frac_contains(a, p), (a, p)

    def test_canonical_representative(self):
        for nx, rep in itertools.product(SCALED_CUTS[::3], INT_SCALARS):
            x = ExternalNum(rep, nx)
            want = frac_canonical_rep(rep, nx)
            assert x.nx is nx
            if nx != NX_ZERO:
                assert x.rep.is_polynomial()
            assert (x.rep.num, x.rep.den) == (want.num, want.den), (rep, nx)

    def test_a_made_cut_behaves_like_a_constructed_one(self):
        for a, p in itertools.product(CUTS, INT_SCALARS[:20]):
            made = nx_scale(p, a)
            built = frac_scale(p, a)
            assert made == built and not made < built and not built < made
            assert hash(made) == hash(built)
            for other in CUTS:
                assert (made < other) == (built < other) and (other < made) == (other < built)
            for copied in (copy.copy(made), copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
                assert copied == built and hash(copied) == hash(built)
                assert copied._key == built._key and copied.q == built.q
            assert made.q == built.q


class TestNoFractionInTheMagnitudeLayer:
    def test_finite_cut_operations_build_no_fraction(self, fraction_calls):
        cuts = [c for c in SCALED_CUTS if c not in (NX_ZERO, FULL)]
        externals = [ExternalNum(p, c) for p, c in zip(INT_SCALARS, cuts)]
        externals += [ExternalNum(p) for p in INT_SCALARS[:10]]
        for a, p in zip(cuts, INT_SCALARS):
            nx_scale(p, a)
            nx_contains(a, p)
        for a, b in zip(cuts, cuts[1:]):
            nx_mul(a, b)
        for x, y in zip(externals, externals[1:]):
            x + y
            x * y
        assert fraction_calls == []
        assert nx_scale(rp(3), LIMITED).q == 3  # reading q is where one is built
        assert fraction_calls == [(3, 1)]

    def test_construction_from_ints_builds_no_fraction(self, fraction_calls):
        p = RhoPoly([(2, 3), (0, -1), (2, 1)])
        cuts = (Neutrix(2, True), closed_cut(-1), open_cut(0))
        assert fraction_calls == []
        assert (p.grid, p.den, p.ks) == (1, 1, ((2, 4), (0, -1)))
        assert [c._key for c in cuts] == [(0, 2, 1, True), (0, -1, 1, True), (0, 0, 1, False)]


def test_the_constructor_inverts_q():
    # cuts built by the constructor, and the finite ones made by _cut from an unreduced pair
    made = [_cut(3 * n, 3 * d, c) for r, n, d, c in (a._key for a in CUTS) if r == 0]
    assert made == [a for a in CUTS if a not in (NX_ZERO, FULL)]
    for a in CUTS + made:
        rebuilt = Neutrix(a.q, a.closed)
        assert rebuilt == a and rebuilt._key == a._key, a
        assert hash(rebuilt) == hash(a) == hash((a.q, a.closed)), a
