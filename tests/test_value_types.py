"""The value types as objects: copying, pickling, immutability, and the
normal-form maker of ``PreciseNum`` against its normalising constructor.

``PreciseNum``, ``Neutrix`` and ``ExternalNum`` are immutable ``__slots__``
classes.  ``PreciseNum(num, den)`` normalises its denominator to ``1 + lower
terms``; results already in that form (``of``, negation, sums, products) are
built without normalising, and must have exactly the fields the constructor
would give them.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from solidus.external import canonicalize
from solidus.field import ONE_POLY, RHO, ZERO_POLY, PreciseNum, RhoPoly
from solidus.generate import GeneratorConfig, Sampler
from solidus.neutrix import FULL, LIMITED, NX_ZERO, closed_cut, nx_scale

RATIO = (PreciseNum.of(RHO) + 1) / (PreciseNum.of(RHO) - 3)
POLY = PreciseNum.of(RhoPoly([(2, F(-3, 4)), (F(-1, 2), 5)]))
EXTERNAL = canonicalize(RATIO, closed_cut(F(-1, 2)))
# a neutrix made by an operation (by _cut), beside the constructed ones
SCALED = nx_scale(RHO, LIMITED)
VALUES = [RhoPoly([(F(1, 3), 2), (0, F(-1, 7))]), RATIO, POLY, NX_ZERO, LIMITED, FULL, SCALED, EXTERNAL]


def _roundtrips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    # every protocol: protocols 0 and 1 pickle a __slots__ class only through __reduce__
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_copy_and_pickle_give_an_equal_value(value):
    for other in _roundtrips(value):
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
        if isinstance(value, PreciseNum):
            assert other.is_polynomial() == value.is_polynomial()
            assert (other.num, other.den) == (value.num, value.den)


@pytest.mark.parametrize(
    "value, name",
    [
        (RATIO, "num"),
        (POLY, "den"),
        (LIMITED, "q"),
        (nx_scale(RHO, LIMITED), "q"),
        (FULL, "closed"),
        (EXTERNAL, "rep"),
        (EXTERNAL, "nx"),
    ],
)
def test_attributes_are_read_only(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    after = getattr(value, name)
    # q is built from the int key on each read: an equal value, not the same object
    assert after == before if name == "q" else after is before


def test_constructor_rejects_operands_that_are_not_polynomials():
    with pytest.raises(TypeError, match="int"):
        PreciseNum(RhoPoly.constant(1), 2)
    with pytest.raises(TypeError, match="int"):
        PreciseNum(2)
    with pytest.raises(TypeError, match="Fraction"):
        PreciseNum(F(1, 2), ONE_POLY)
    with pytest.raises(ZeroDivisionError):
        PreciseNum(ONE_POLY, ZERO_POLY)


def _precise_pairs():
    s = Sampler(GeneratorConfig(seed=23), "value-types")
    pairs = [(s.precise(ratio_probability=0.5), s.precise(ratio_probability=0.5)) for _ in range(300)]
    pairs += [(a, a) for a, _ in pairs[:20]] + [(a, -a) for a, _ in pairs[:20]]
    return pairs + [(RATIO, POLY), (RATIO, PreciseNum()), (PreciseNum(), POLY)]


PRECISE_PAIRS = _precise_pairs()


def assert_normal(r: PreciseNum) -> None:
    """``r`` has exactly the fields the normalising constructor gives its ratio."""
    ref = PreciseNum(r.num, r.den)
    assert (r.num, r.den) == (ref.num, ref.den), repr(r)
    assert r.is_polynomial() == (r.den == ONE_POLY), repr(r)


def test_ratios_drawn_include_ratios_and_zero():
    values = [v for pair in PRECISE_PAIRS for v in pair]
    assert sum(not v.is_polynomial() for v in values) > 100
    assert any(v.is_zero() for v in values)


def test_maker_results_match_the_normalising_constructor():
    for a, b in PRECISE_PAIRS:
        for r in (a + b, a - b, a * b, -a, PreciseNum.of(a.num), PreciseNum.of(b.den)):
            assert_normal(r)
        if not b.is_zero():
            assert_normal(a / b)


def test_of_builds_normal_forms():
    for value in (0, -3, F(2, 7), ZERO_POLY, ONE_POLY, RHO, RhoPoly.rho_power(F(-1, 2), 5)):
        r = PreciseNum.of(value)
        assert_normal(r)
        assert r.is_polynomial()
    assert not RATIO.is_polynomial() and RATIO.den != ONE_POLY
