"""Exhaustive checks over a small enumerated value space.

Random sampling can miss thin corner cases; these tests enumerate every
external number over a tiny grid of exponents, coefficients and thresholds and
verify the order and arithmetic laws on all pairs (and many triples) of them.
"""

import itertools
from fractions import Fraction as F

from solidus.external import (
    canonicalize,
    ext_add,
    ext_compare,
    ext_disjoint,
    ext_member,
    ext_mul,
    ext_subset,
    magnitude,
)
from solidus.field import Ordering, PreciseNum, RhoPoly
from solidus.neutrix import FULL, NX_ZERO, closed_cut, open_cut

LT, EQ, GT = Ordering.LT, Ordering.EQ, Ordering.GT


def _enumerate_values():
    exponents = (F(-1), F(0), F(1))
    coeffs = (F(-1), F(1))
    polys = [RhoPoly()]
    for e, c in itertools.product(exponents, coeffs):
        polys.append(RhoPoly.rho_power(e, c))
    for (e1, c1), (e2, c2) in itertools.combinations(
        itertools.product(exponents, coeffs), 2
    ):
        if e1 != e2:
            polys.append(RhoPoly.rho_power(e1, c1) + RhoPoly.rho_power(e2, c2))
    neutrices = [NX_ZERO, FULL]
    for q in (F(-1), F(0), F(1)):
        neutrices.append(open_cut(q))
        neutrices.append(closed_cut(q))
    values = []
    seen = set()
    for p, nx in itertools.product(polys, neutrices):
        v = canonicalize(p, nx)
        if v not in seen:
            seen.add(v)
            values.append(v)
    return values


VALUES = _enumerate_values()


def test_space_is_nontrivial():
    shapes = {str(v.nx)[-1] for v in VALUES}
    assert shapes == set("0oLM")
    # canonicalization collapses most (poly, neutrix) pairs; 64 survive
    assert len(VALUES) >= 60


def test_total_order_antisymmetric_all_pairs():
    for a, b in itertools.product(VALUES, repeat=2):
        ab = ext_compare(a, b)
        ba = ext_compare(b, a)
        assert ab.value == -ba.value
        if ab is EQ:
            assert a == b


def test_trichotomy_all_pairs():
    for a, b in itertools.product(VALUES, repeat=2):
        disjoint = ext_disjoint(a, b)
        sub = ext_subset(a, b)
        sup = ext_subset(b, a)
        assert disjoint or sub or sup
        if a == b:
            assert sub and sup and not disjoint
        else:
            assert disjoint + sub + sup == 1
        cmp = ext_compare(a, b)
        if disjoint:
            assert cmp is (LT if a.rep < b.rep else GT)
        elif sub and not sup:
            assert cmp is LT
        elif sup and not sub:
            assert cmp is GT


def test_transitivity_on_sorted_chain():
    # sorting with the comparator is itself a strong transitivity workout
    import functools

    chain = sorted(VALUES, key=functools.cmp_to_key(lambda a, b: ext_compare(a, b).value))
    for a, b in zip(chain, chain[1:]):
        assert ext_compare(a, b) is not GT
    step = max(1, len(chain) // 40)
    probe = chain[::step]
    for i, a in enumerate(probe):
        for b in probe[i:]:
            assert ext_compare(a, b) is not GT


def test_addition_laws_all_pairs():
    for a, b in itertools.product(VALUES, repeat=2):
        s = ext_add(a, b)
        assert s == ext_add(b, a)
        assert magnitude(s) in (magnitude(a), magnitude(b))


def test_multiplication_commutes_all_pairs():
    for a, b in itertools.product(VALUES, repeat=2):
        assert ext_mul(a, b) == ext_mul(b, a)


def test_distributivity_exact_on_probe_triples():
    step = max(1, len(VALUES) // 28)
    probe = VALUES[::step]
    for x, y, z in itertools.product(probe, repeat=3):
        lhs = ext_add(ext_mul(x, y), ext_mul(x, z))
        e = magnitude(x)
        rhs = ext_add(ext_add(ext_mul(x, ext_add(y, z)), ext_mul(e, y)), ext_mul(e, z))
        assert lhs == rhs, (x, y, z)


def test_product_neutrix_attained_not_overestimated():
    """Reverse direction of Minkowski soundness on zeroless pairs.

    Wherever the computed product neutrix comes from a representative-scaled
    part (a*B or b*A), group elements near its threshold are realized by
    actual member products, so the computed blur is not an overestimate.
    """
    zeroless = [
        v
        for v in VALUES
        if not v.rep.is_zero()
        and v.nx not in (NX_ZERO, FULL)
    ]
    probe = zeroless[:: max(1, len(zeroless) // 20)]
    for a, b in itertools.product(probe, repeat=2):
        result = ext_mul(a, b)
        if result.nx in (NX_ZERO, FULL):
            continue
        q = result.nx.q
        offsets = [F(-1), F(-1, 2)]
        if result.nx.closed:
            offsets.append(F(0))
        for off in offsets:
            g = PreciseNum.of(RhoPoly.rho_power(q + off))
            # try realizing ab + g as a member product along either factor
            realized = False
            for base, other in ((a, b), (b, a)):
                candidate = other.rep + g / base.rep
                if ext_member(candidate, other):
                    product = base.rep * candidate
                    realized = ext_member(product, result)
                    if realized:
                        break
            if ext_member(a.rep * b.rep + g, result):
                assert realized, (a, b, g)
