"""The shrink candidates follow the documented rule of ``generate._candidates``.

``generate._candidates`` simplifies the int pairs that ``field`` and
``neutrix`` store.  Every candidate of a seeded value of each type that
shrinks is canonical, differs from its value, and either has fewer terms or
changes one rational to a strictly smaller ``(denominator, |numerator|)``, so
greedy shrinking cannot cycle.  Literal tables fix ``_rational_candidates``
and the candidates of one value of each type, in order; the shrink pin of
``test_checks`` fixes the order on the catalog's counterexamples.
"""

import ast
import itertools
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from solidus.external import ExternalNum
from solidus.field import PreciseNum, RhoPoly
from solidus.generate import GeneratorConfig, Sampler, _candidates, _rational_candidates
from solidus.halfline import Halfline, HalflineKind, Side
from solidus.neutrix import FULL, NX_ZERO, Neutrix
from test_int_kernel import assert_canonical, assert_precise_canonical

GENERATE = Path(__file__).resolve().parent.parent / "src" / "solidus" / "generate.py"


def _fields(value):
    """The stored fields of a candidate, so equal candidates must be stored alike."""
    if isinstance(value, RhoPoly):
        return (value.grid, value.den, value.ks)
    if isinstance(value, PreciseNum):
        return (_fields(value.num), _fields(value.den))
    if isinstance(value, Neutrix):
        return value._key
    if isinstance(value, ExternalNum):
        return (_fields(value.rep), _fields(value.nx))
    assert isinstance(value, Halfline)
    return (value.side, value.kind, _fields(value.bound))


def _ratio_draw(s: Sampler) -> PreciseNum:
    x = s.precise(ratio_probability=1.0)
    while x.is_polynomial():
        x = s.precise(ratio_probability=1.0)
    return x


def _halfline(s: Sampler) -> Halfline:
    side = (Side.LOWER, Side.UPPER)[s.integer(0, 1)]
    kind = list(HalflineKind)[s.integer(0, 2)]
    return Halfline(side, kind, s.external())


VALUES = {
    "polynomial": lambda s: s.precise(ratio_probability=0.0),
    "ratio": _ratio_draw,
    "neutrix": lambda s: s.neutrix(),
    "member": lambda s: s.member_of(s.scaled_neutrix()),
    "external": lambda s: s.external(),
    "zeroless": lambda s: s.zeroless(),
    "halfline": _halfline,
}


def _assert_canonical(value) -> None:
    """The stored fields of ``value`` are in canonical form."""
    if isinstance(value, RhoPoly):
        assert_canonical(value)
    elif isinstance(value, PreciseNum):
        assert_precise_canonical(value)
    elif isinstance(value, Neutrix):
        rank, n, d, _ = value._key
        assert d > 0 and gcd(n, d) == 1 and (rank == 0 or (n, d) == (0, 1)), value._key
    elif isinstance(value, ExternalNum):
        _assert_canonical(value.rep)
        _assert_canonical(value.nx)
        # a representative holds no term its magnitude absorbs
        assert _fields(value) == _fields(ExternalNum(value.rep, value.nx)), str(value)
    else:
        _assert_canonical(value.bound)


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


def _smaller(q: tuple[int, int], r: tuple[int, int]) -> bool:
    """Whether the reduced ``n/d`` pair q is strictly simpler than r in ``(d, |n|)``."""
    return (q[1], abs(q[0])) < (r[1], abs(r[0]))


def _simpler(candidate, value) -> bool:
    """Whether ``candidate`` has fewer terms than ``value`` or changes one of its rationals to a smaller one."""
    if isinstance(value, RhoPoly):
        # each term as its reduced exponent and coefficient
        old, new = ({(_reduced(k, p.grid), _reduced(c, p.den)) for k, c in p.ks} for p in (value, candidate))
        if len(new) < len(old):
            return True
        if len(new) > len(old) or len(old - new) != 1:
            return False
        ((e, c),), ((e2, c2),) = old - new, new - old
        return (e2 == e and _smaller(c2, c)) or (c2 == c and _smaller(e2, e))
    if isinstance(value, PreciseNum):
        if candidate.den == value.den or candidate.is_zero():  # zero's denominator is 1
            return _simpler(candidate.num, value.num)
        # the ratio's numerator alone
        return candidate.num == value.num and candidate.is_polynomial()
    if isinstance(value, Neutrix):
        return candidate.closed == value.closed and _smaller(candidate._key[1:3], value._key[1:3])
    if isinstance(value, ExternalNum):
        if candidate.nx == value.nx:
            return _simpler(candidate.rep, value.rep)
        # a simpler magnitude over the same representative, which it may absorb in part
        return _simpler(candidate.nx, value.nx) and candidate == ExternalNum(value.rep, candidate.nx)
    return (candidate.side, candidate.kind) == (value.side, value.kind) and _simpler(candidate.bound, value.bound)


@pytest.mark.parametrize("seed", (1, 7, 42))
@pytest.mark.parametrize("kind", sorted(VALUES))
def test_candidates_are_canonical_and_simpler(seed, kind):
    s = Sampler(GeneratorConfig(seed=seed), f"shrink.{kind}")
    yielded = 0
    for _ in range(150):
        value = VALUES[kind](s)
        for candidate in _candidates(value):
            assert type(candidate) is type(value)
            _assert_canonical(candidate)
            assert candidate != value and _simpler(candidate, value), (str(value), str(candidate))
            yielded += 1
    assert yielded > 150


def test_the_neutrix_draws_reach_both_infinite_cuts():
    # the cuts at -inf and +inf yield no candidate, like the threshold 0
    s = Sampler(GeneratorConfig(seed=7), "shrink.neutrix")
    drawn = {s.neutrix() for _ in range(150)}
    assert {NX_ZERO, FULL} <= drawn
    for nx in (NX_ZERO, FULL, Neutrix(0, True), Neutrix(0, False)):
        assert list(_candidates(nx)) == []


#: ``(n, d)``: the candidates in order, the integer part, 0, 1, -1 and half the
#: numerator over d, each kept when new and strictly smaller
RATIONAL_CANDIDATES = {
    (0, 1): [],
    (1, 1): [(0, 1)],
    (-1, 1): [(0, 1)],
    (2, 1): [(0, 1), (1, 1), (-1, 1)],
    (3, 1): [(0, 1), (1, 1), (-1, 1)],
    (-3, 1): [(0, 1), (1, 1), (-1, 1), (-2, 1)],
    (7, 1): [(0, 1), (1, 1), (-1, 1), (3, 1)],
    (1, 2): [(0, 1), (1, 1), (-1, 1)],
    (-1, 2): [(-1, 1), (0, 1), (1, 1)],
    (3, 2): [(1, 1), (0, 1), (-1, 1), (1, 2)],
    (-5, 2): [(-3, 1), (0, 1), (1, 1), (-1, 1), (-3, 2)],
    (-2, 3): [(-1, 1), (0, 1), (1, 1), (-1, 3)],
    (-7, 3): [(-3, 1), (0, 1), (1, 1), (-1, 1), (-4, 3)],
    (9, 4): [(2, 1), (0, 1), (1, 1), (-1, 1)],
    (7, 6): [(1, 1), (0, 1), (-1, 1), (1, 2)],
}


def test_rational_candidates_table():
    for (n, d), want in RATIONAL_CANDIDATES.items():
        assert list(_rational_candidates(n, d)) == want, (n, d)


def test_rational_candidates_are_reduced_new_and_smaller():
    checked = 0
    for n, d in itertools.product(range(-40, 41), range(1, 13)):
        if gcd(n, d) != 1:
            continue
        got = list(_rational_candidates(n, d))
        assert len(set(got)) == len(got) and (n, d) not in got, (n, d)
        for m, e in got:
            assert e > 0 and gcd(m, e) == 1 and _smaller((m, e), (n, d)), (n, d, m, e)
        checked += 1
    assert checked > 500


#: one value of each type that shrinks, and its candidates in order
CANDIDATES = [
    (
        PreciseNum(RhoPoly([(F(3, 2), 2), (0, F(-1, 2))])),
        ["-1/2", "2*rho^(3/2)", "2*rho - 1/2", "3/2", "-1/2 + 2*rho^(-1)", "2*rho^(1/2) - 1/2",
         "rho^(3/2) - 1/2", "-rho^(3/2) - 1/2", "2*rho^(3/2) - 1", "2*rho^(3/2) + 1"],
    ),
    (PreciseNum(RhoPoly([(1, 1)]), RhoPoly([(0, 1), (-1, 3)])), ["rho", "0", "(1)/(1 + 3*rho^(-1))"]),
    (Neutrix(F(-3, 2), True), ["rho^(-2)*L", "L", "rho*L", "rho^(-1)*L"]),
    (
        ExternalNum(RhoPoly([(1, 3), (0, 1)]), Neutrix(F(-1, 2), False)),
        ["1 + rho^(-1/2)*o", "3*rho + rho^(-1/2)*o", "4 + rho^(-1/2)*o", "rho + 1 + rho^(-1/2)*o",
         "-rho + 1 + rho^(-1/2)*o", "3*rho + 1 + rho^(-1)*o", "3*rho + 1 + o", "3*rho + rho*o"],
    ),
    # -1 + L and -rho^(-1) + L are L: a candidate may repeat another
    (
        Halfline(Side.LOWER, HalflineKind.OPEN, ExternalNum(RhoPoly([(F(1, 2), -1)]), Neutrix(0, True))),
        ["(-inf, L)", "(-inf, L)", "(-inf, -rho + L)", "(-inf, L)"],
    ),
]


@pytest.mark.parametrize("value, want", CANDIDATES, ids=[str(v) for v, _ in CANDIDATES])
def test_candidates_table(value, want):
    assert [str(c) for c in _candidates(value)] == want


def test_candidates_build_no_fraction(fraction_calls):
    s = Sampler(GeneratorConfig(seed=42), "shrink.no_fraction")
    values = [make(s) for make in VALUES.values() for _ in range(40)]
    fraction_calls.clear()
    for value in values:
        list(_candidates(value))
    assert fraction_calls == []


def test_generate_imports_nothing_from_fractions():
    tree = ast.parse(GENERATE.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert "fractions" not in imported
    assert "Fraction" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
