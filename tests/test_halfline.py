"""Tests for halflines, weak bounds and the separation lemmas.

StronglyOpen membership claims are verified against an enumeration oracle:
sampled precise representatives t of the bound (rep + group elements) must all
sit above/below the candidate member.
"""

from fractions import Fraction as F

import pytest

from solidus.errors import (
    DegenerateDomainError,
    EmptySetError,
    NotStrictlyOrderedError,
    PreconditionFailedError,
)
from solidus.external import canonicalize, pure
from solidus.field import PreciseNum, RhoPoly
from solidus.halfline import (
    HalflineKind,
    hl_complement,
    hl_member,
    lower,
    render_halfline,
    separate_from_hole,
    separate_precise,
    upper,
    zup,
    zup_finite,
)
from solidus.neutrix import (
    FULL,
    INFINITESIMALS,
    LIMITED,
    NX_ZERO,
    closed_cut,
    open_cut,
)

rp = RhoPoly.rho_power

CLOSED, OPEN, SO = HalflineKind.CLOSED, HalflineKind.OPEN, HalflineKind.STRONGLY_OPEN


def representatives(alpha):
    """Sampled precise t with t + e(alpha) = alpha."""
    if alpha.nx == NX_ZERO:
        return [alpha.rep]
    if alpha.nx == FULL:
        return [PreciseNum.of(x) for x in (0, -1, 1, rp(2), rp(-2))]
    q = alpha.nx.q
    offsets = [PreciseNum.of(0), PreciseNum.of(rp(q - 1, 3)), PreciseNum.of(rp(q - F(1, 2), -2))]
    if alpha.nx == closed_cut(q):
        offsets.append(PreciseNum.of(rp(q, -1)))
    return [alpha.rep + off for off in offsets]


class TestMembership:
    def test_closed_contains_bound_representative(self):
        h = lower(CLOSED, canonicalize(1, INFINITESIMALS))
        assert hl_member(h, canonicalize(1))

    def test_strongly_open_limited_bound(self):
        h = lower(SO, pure(LIMITED))
        below = canonicalize(-rp(1))
        inside = canonicalize(-1)
        assert hl_member(h, below)
        assert not hl_member(h, inside)
        # enumeration oracle over sampled representatives t of the bound
        for t in representatives(h.bound):
            assert below < canonicalize(t)
        assert any(canonicalize(t) <= inside for t in representatives(h.bound))

    def test_open_excludes_bound(self):
        sigma = canonicalize(rp(1), LIMITED)
        assert not hl_member(lower(OPEN, sigma), sigma)

    def test_upper_duals(self):
        b = canonicalize(1, INFINITESIMALS)
        assert hl_member(upper(CLOSED, b), b)
        assert not hl_member(upper(OPEN, b), b)
        assert hl_member(upper(OPEN, b), canonicalize(2))
        assert hl_member(upper(SO, b), canonicalize(1))
        assert not hl_member(upper(SO, b), canonicalize(0))

    def test_strongly_open_precise_bound_collapses_to_open(self):
        b = canonicalize(3)
        points = [canonicalize(x) for x in (2, 3, 4)] + [canonicalize(3, INFINITESIMALS)]
        for x in points:
            assert hl_member(lower(SO, b), x) == hl_member(lower(OPEN, b), x)


class TestComplement:
    def test_closed_to_open(self):
        h = lower(CLOSED, canonicalize(1, INFINITESIMALS))
        c = hl_complement(h)
        assert c == upper(OPEN, h.bound)

    def test_involution(self):
        for kind in (CLOSED, OPEN, SO):
            for make in (lower, upper):
                h = make(kind, canonicalize(2, LIMITED))
                assert hl_complement(hl_complement(h)) == h

    def test_partition(self):
        bounds = [pure(LIMITED), canonicalize(1, INFINITESIMALS), canonicalize(rp(1)), pure(FULL)]
        points = [
            canonicalize(0),
            canonicalize(1),
            canonicalize(-rp(1)),
            canonicalize(rp(1), LIMITED),
            pure(FULL),
            canonicalize(1, INFINITESIMALS),
        ]
        for b in bounds:
            for kind in (CLOSED, OPEN, SO):
                h = lower(kind, b)
                try:
                    c = hl_complement(h)
                except DegenerateDomainError:
                    continue
                for x in points:
                    assert hl_member(h, x) != hl_member(c, x)

    def test_full_domain_rejected(self):
        with pytest.raises(DegenerateDomainError):
            hl_complement(lower(CLOSED, pure(FULL)))
        with pytest.raises(DegenerateDomainError):
            hl_complement(upper(SO, pure(FULL)))


class TestZup:
    def test_zup_closed_is_maximum(self):
        b = canonicalize(rp(1), LIMITED)
        h = lower(CLOSED, b)
        assert zup(h) == b
        assert hl_member(h, b)

    def test_zup_strongly_open_weak_supremum(self):
        h = lower(SO, pure(LIMITED))
        assert zup(h) == pure(LIMITED)
        assert not hl_member(h, zup(h))

    def test_sides_enforced(self):
        with pytest.raises(ValueError):
            zup(upper(CLOSED, canonicalize(1)))

    def test_zup_finite(self):
        a = canonicalize(0, INFINITESIMALS)
        b = canonicalize(1, INFINITESIMALS)
        assert zup_finite([a, b]) == b
        assert zup_finite([a]) == a
        assert zup_finite([pure(open_cut(-2)), pure(closed_cut(-1))]) == pure(closed_cut(-1))
        with pytest.raises(EmptySetError, match="zup of an empty set"):
            zup_finite([])

    def test_finite_maximum_keeps_the_first_maximal_item(self):
        a, b = canonicalize(1, LIMITED), canonicalize(2, LIMITED)
        assert a == b and a is not b
        below = canonicalize(-5)
        assert zup_finite([below, a, b]) is a and zup_finite(iter([b, below, a])) is b

    def test_zup_of_magnitudes_is_magnitude(self):
        family = [pure(open_cut(-1)), pure(closed_cut(-2)), pure(INFINITESIMALS)]
        top = zup_finite(family)
        assert top.rep.is_zero()


class TestSeparatePrecise:
    def test_between_the_two_canonical_magnitudes(self):
        p = separate_precise(pure(INFINITESIMALS), pure(LIMITED))
        assert pure(INFINITESIMALS) < canonicalize(p) < pure(LIMITED)
        assert p == 1

    def test_trivial(self):
        assert separate_precise(canonicalize(0), canonicalize(2)) == 1

    def test_scaled_magnitudes(self):
        x, y = pure(open_cut(1)), pure(closed_cut(2))
        p = separate_precise(x, y)
        assert x < canonicalize(p) < y

    def test_nested_same_representative(self):
        x = canonicalize(1, INFINITESIMALS)
        y = canonicalize(1, LIMITED)
        p = separate_precise(x, y)
        assert x < canonicalize(p) < y

    def test_zeroless_gap(self):
        x = canonicalize(2, INFINITESIMALS)
        y = canonicalize(rp(1), LIMITED)
        p = separate_precise(x, y)
        assert x < canonicalize(p) < y

    def test_not_ordered_rejected(self):
        with pytest.raises(NotStrictlyOrderedError):
            separate_precise(pure(LIMITED), pure(INFINITESIMALS))
        with pytest.raises(NotStrictlyOrderedError):
            separate_precise(canonicalize(1), canonicalize(1))


class TestSeparateFromHole:
    def test_half_of_shifted_bound(self):
        p = separate_from_hole(canonicalize(0), canonicalize(rp(1), LIMITED))
        assert p == PreciseNum.of(rp(1)) / 2

    def test_precise_hole(self):
        p = separate_from_hole(canonicalize(-1), canonicalize(1))
        assert canonicalize(-1) < canonicalize(p) < canonicalize(1)

    def test_postcondition_with_wide_lower_side(self):
        x = pure(LIMITED)
        tau = canonicalize(rp(1), closed_cut(F(1, 2)))
        p = separate_from_hole(x, tau)
        assert p == PreciseNum.of(rp(1)) / 2
        assert x < canonicalize(p)
        for t in representatives(tau):
            assert canonicalize(p) < canonicalize(t)

    def test_shifted_construction(self):
        # The bound must be halved relative to x, not in absolute terms.
        p = separate_from_hole(canonicalize(20), canonicalize(30))
        assert canonicalize(20) < canonicalize(p) < canonicalize(30)

    def test_precondition_rejected(self):
        with pytest.raises(PreconditionFailedError):
            separate_from_hole(canonicalize(1), canonicalize(1, INFINITESIMALS))


class TestRendering:
    @pytest.mark.parametrize(
        "h,text",
        [
            (lower(CLOSED, canonicalize(1)), "(-inf, 1]"),
            (lower(OPEN, canonicalize(1)), "(-inf, 1)"),
            (lower(SO, pure(LIMITED)), "(-inf, L[["),
            (upper(CLOSED, canonicalize(1)), "[1, +inf)"),
            (upper(OPEN, canonicalize(1)), "(1, +inf)"),
            (upper(SO, pure(LIMITED)), "]]L, +inf)"),
        ],
    )
    def test_bracket_notation(self, h, text):
        assert render_halfline(h) == text
