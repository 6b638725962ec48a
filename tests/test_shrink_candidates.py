"""The int-pair shrink candidates are those of the ``Fraction`` rule they replaced.

``generate._candidates`` simplifies the int pairs that ``field`` and
``neutrix`` store.  Every shrunk counterexample stays the same only if it
yields the candidates of the reference rule in ``fraction_shrink``, in the
same order, for every type that shrinks; both are compared here on seeded
values, and the rational rule on a grid of reduced pairs.
"""

import ast
import itertools
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

import fraction_shrink as ref
from solidus.external import ExternalNum
from solidus.field import PreciseNum, RhoPoly
from solidus.generate import GeneratorConfig, Sampler, _candidates, _rational_candidates
from solidus.halfline import Halfline, HalflineKind, Side
from solidus.neutrix import FULL, NX_ZERO, Neutrix

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


@pytest.mark.parametrize("seed", (1, 7, 42))
@pytest.mark.parametrize("kind", sorted(VALUES))
def test_candidates_equal_the_fraction_rule(seed, kind):
    s = Sampler(GeneratorConfig(seed=seed), f"shrink.{kind}")
    yielded = 0
    for _ in range(150):
        value = VALUES[kind](s)
        got, want = list(_candidates(value)), list(ref.candidates(value))
        assert got == want, value
        assert [_fields(c) for c in got] == [_fields(c) for c in want], value
        yielded += len(got)
    assert yielded > 150


def test_the_neutrix_draws_reach_both_infinite_cuts():
    # the cuts at -inf and +inf yield no candidate, like the threshold 0
    s = Sampler(GeneratorConfig(seed=7), "shrink.neutrix")
    drawn = {s.neutrix() for _ in range(150)}
    assert {NX_ZERO, FULL} <= drawn
    for nx in (NX_ZERO, FULL, Neutrix(0, True), Neutrix(0, False)):
        assert list(_candidates(nx)) == list(ref.candidates(nx)) == []


def test_rational_candidates_equal_the_fraction_rule():
    checked = 0
    for n, d in itertools.product(range(-40, 41), range(1, 13)):
        if gcd(n, d) != 1:
            continue
        want = [(q.numerator, q.denominator) for q in ref.fraction_candidates(F(n, d))]
        assert list(_rational_candidates(n, d)) == want, (n, d)
        checked += 1
    assert checked > 500


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
